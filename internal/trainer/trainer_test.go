package trainer

import (
	"fmt"
	"math"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/synth"
)

func fixture(t *testing.T) (*synth.World, *modelhub.Model, *datahub.Dataset) {
	t.Helper()
	w := synth.NewWorld(42)
	m, err := modelhub.Materialize(w, modelhub.Spec{
		Name: "trainer/model", Task: datahub.TaskNLP, Arch: "bert", Params: 110,
		Domains:    map[string]float64{datahub.DomainNLI: 1},
		Capability: 0.7, SourceClasses: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := datahub.Generate(w, datahub.Spec{
		Name: "trainer/ds", Task: datahub.TaskNLP,
		Domains: map[string]float64{datahub.DomainNLI: 1},
		Classes: 3, Separability: 2, Noise: 1.6,
	}, datahub.Sizes{Train: 200, Val: 100, Test: 150})
	if err != nil {
		t.Fatal(err)
	}
	return w, m, d
}

func TestDefaultHyperparams(t *testing.T) {
	if hp := Default(datahub.TaskNLP); hp.Epochs != 5 {
		t.Fatalf("NLP epochs %d, paper trains 5", hp.Epochs)
	}
	if hp := Default(datahub.TaskCV); hp.Epochs != 4 {
		t.Fatalf("CV epochs %d, paper trains 4", hp.Epochs)
	}
	if lo, hi := LowLR(datahub.TaskNLP).LearningRate, Default(datahub.TaskNLP).LearningRate; lo >= hi {
		t.Fatalf("LowLR %v not below default %v", lo, hi)
	}
}

func TestNewRunValidation(t *testing.T) {
	_, m, d := fixture(t)
	if _, err := NewRun(m, d, Hyperparams{}, 42, ""); err == nil {
		t.Fatal("zero hyperparams accepted")
	}
	w := synth.NewWorld(42)
	cvModel, err := modelhub.Materialize(w, modelhub.Spec{
		Name: "trainer/cv", Task: datahub.TaskCV, Arch: "vit", Params: 86,
		Capability: 0.5, SourceClasses: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRun(cvModel, d, Default(datahub.TaskCV), 42, ""); err == nil {
		t.Fatal("task mismatch accepted")
	}
}

// majorityBaseline returns the accuracy of always predicting the most
// frequent label — the floor every trained model must beat.
func majorityBaseline(y []int) float64 {
	counts := map[int]int{}
	best := 0
	for _, c := range y {
		counts[c]++
		if counts[c] > best {
			best = counts[c]
		}
	}
	return float64(best) / float64(len(y))
}

func TestTrainingLearns(t *testing.T) {
	w, m, d := fixture(t)
	run, err := NewRun(m, d, Default(datahub.TaskNLP), w.Seed, "learn")
	if err != nil {
		t.Fatal(err)
	}
	before := argmaxAccuracy(run.ValProbs(), d.Val.Y) // the untrained head
	for e := 0; e < 5; e++ {
		run.TrainEpoch()
	}
	after := run.Curve().FinalVal()
	maj := majorityBaseline(d.Val.Y)
	if after <= maj {
		t.Fatalf("trained val %v not above majority %v", after, maj)
	}
	if after <= before {
		t.Fatalf("val did not improve: %v -> %v", before, after)
	}
}

func TestCurveShape(t *testing.T) {
	w, m, d := fixture(t)
	curve, err := FineTune(m, d, Default(datahub.TaskNLP), w.Seed, "curve")
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Val) != 5 {
		t.Fatalf("curve length %d", len(curve.Val))
	}
	for _, v := range append(curve.Val, curve.Test) {
		if v < 0 || v > 1 {
			t.Fatalf("accuracy %v outside [0,1]", v)
		}
	}
	if curve.FinalVal() != curve.Val[4] {
		t.Fatal("FinalVal disagrees with the curve")
	}
}

func TestEmptyCurveAccessors(t *testing.T) {
	var c Curve
	if c.FinalVal() != 0 {
		t.Fatal("empty curve's FinalVal should be 0")
	}
}

func TestFineTuneDeterministic(t *testing.T) {
	w, m, d := fixture(t)
	a, err := FineTune(m, d, Default(datahub.TaskNLP), w.Seed, "det")
	if err != nil {
		t.Fatal(err)
	}
	b, err := FineTune(m, d, Default(datahub.TaskNLP), w.Seed, "det")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			t.Fatal("identical runs diverged")
		}
	}
	if a.Test != b.Test {
		t.Fatal("identical runs reported different test accuracies")
	}
}

// fineTunePerEpoch is FineTune as it was when the performance matrix kept
// a test curve: it scores the test split after every epoch. It is the
// oracle for FineTune's one final test evaluation.
func fineTunePerEpoch(m *modelhub.Model, d *datahub.Dataset, hp Hyperparams, seed uint64, salt string) (val, test []float64, err error) {
	run, err := NewRun(m, d, hp, seed, salt)
	if err != nil {
		return nil, nil, err
	}
	for e := 0; e < hp.Epochs; e++ {
		run.TrainEpoch()
		test = append(test, run.TestAccuracy())
	}
	return run.Curve().Val, test, nil
}

// TestFineTuneMatchesPerEpochOracle: scoring the test split once, after
// the last epoch, leaves the validation curve bit for bit what per-epoch
// scoring recorded, and the final test accuracy is the oracle's
// last-epoch word — on cells of both task families, at each family's
// epoch budget, benchmarks of 2 up to 20 classes included.
func TestFineTuneMatchesPerEpochOracle(t *testing.T) {
	w := synth.NewWorld(7)
	sizes := datahub.Sizes{Train: 60, Val: 40, Test: 48}
	for _, c := range []struct {
		task     string
		models   []modelhub.Spec
		datasets []datahub.Spec
	}{
		{datahub.TaskNLP, modelhub.NLPSpecs(), datahub.NLPBenchmarks()},
		{datahub.TaskCV, modelhub.CVSpecs(), datahub.CVBenchmarks()},
	} {
		hp := Default(c.task)
		tenPlus := 0
		for _, name := range []string{"dbpedia_14", "yahoo_answers_topics", "glue/cola", "food101", "mnist", "cats_vs_dogs"} {
			var spec *datahub.Spec
			for i := range c.datasets {
				if c.datasets[i].Name == name {
					spec = &c.datasets[i]
				}
			}
			if spec == nil {
				continue
			}
			if spec.Classes >= 10 {
				tenPlus++
			}
			d, err := datahub.Generate(w, *spec, sizes)
			if err != nil {
				t.Fatal(err)
			}
			for _, ms := range []modelhub.Spec{c.models[0], c.models[len(c.models)/2], c.models[len(c.models)-1]} {
				m, err := modelhub.Materialize(w, ms)
				if err != nil {
					t.Fatal(err)
				}
				val, test, err := fineTunePerEpoch(m, d, hp, w.Seed, "offline-matrix")
				if err != nil {
					t.Fatal(err)
				}
				got, err := FineTune(m, d, hp, w.Seed, "offline-matrix")
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Val) != hp.Epochs || len(val) != hp.Epochs {
					t.Fatalf("%s on %s: curves of %d and %d epochs, want %d", ms.Name, name, len(got.Val), len(val), hp.Epochs)
				}
				for e := range val {
					if math.Float64bits(got.Val[e]) != math.Float64bits(val[e]) {
						t.Fatalf("%s on %s: epoch %d validation %v, the per-epoch oracle recorded %v", ms.Name, name, e, got.Val[e], val[e])
					}
				}
				if want := test[len(test)-1]; math.Float64bits(got.Test) != math.Float64bits(want) {
					t.Fatalf("%s on %s: final test %v, the per-epoch oracle's last word is %v", ms.Name, name, got.Test, want)
				}
			}
		}
		if tenPlus < 2 {
			t.Fatalf("%s: %d benchmarks of 10 or more classes checked, want 2", c.task, tenPlus)
		}
	}
}

func TestSaltSeparatesRuns(t *testing.T) {
	w, m, d := fixture(t)
	a, err := FineTune(m, d, Default(datahub.TaskNLP), w.Seed, "salt-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := FineTune(m, d, Default(datahub.TaskNLP), w.Seed, "salt-b")
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct salts produced identical curves")
	}
}

func TestCurveCopyIsIndependent(t *testing.T) {
	w, m, d := fixture(t)
	run, err := NewRun(m, d, Default(datahub.TaskNLP), w.Seed, "copy")
	if err != nil {
		t.Fatal(err)
	}
	run.TrainEpoch()
	c := run.Curve()
	c.Val[0] = -99
	if run.Curve().Val[0] == -99 {
		t.Fatal("Curve() exposes internal slice")
	}
}

func TestStagedTrainingMatchesFineTune(t *testing.T) {
	w, m, d := fixture(t)
	hp := Default(datahub.TaskNLP)
	full, err := FineTune(m, d, hp, w.Seed, "staged")
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRun(m, d, hp, w.Seed, "staged")
	if err != nil {
		t.Fatal(err)
	}
	if run.FinalVal() != 0 {
		t.Fatalf("untrained FinalVal = %v, want 0", run.FinalVal())
	}
	for e := 0; e < hp.Epochs; e++ {
		val := run.TrainEpoch()
		if run.FinalVal() != val {
			t.Fatalf("epoch %d: FinalVal %v, TrainEpoch returned %v", e, run.FinalVal(), val)
		}
		// Asking for test accuracy after any epoch does not disturb
		// training; after the last it is FineTune's final test accuracy.
		if got := run.TestAccuracy(); e == hp.Epochs-1 && got != full.Test {
			t.Fatalf("staged TestAccuracy %v after the last epoch, FineTune reported %v", got, full.Test)
		}
	}
	staged := run.Curve()
	for i := range full.Val {
		if full.Val[i] != staged.Val[i] {
			t.Fatal("staged training diverges from FineTune")
		}
	}
	// A staged run scores the validation split only: no test accuracy is
	// recorded.
	if staged.Test != 0 {
		t.Fatalf("staged run recorded a test accuracy: %v", staged.Test)
	}
}

func TestLedger(t *testing.T) {
	var l Ledger
	l.ChargeEpochs(10)
	l.ChargeInference(4)
	if l.TrainEpochs() != 10 {
		t.Fatalf("train epochs %d", l.TrainEpochs())
	}
	if l.Total() != 12 {
		t.Fatalf("total %v (10 + 4*0.5)", l.Total())
	}
	var other Ledger
	other.ChargeEpochs(5)
	l.Add(other)
	if l.Total() != 17 {
		t.Fatalf("after Add total %v", l.Total())
	}
	if l.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestLedgerPanicsOnNegative(t *testing.T) {
	var l Ledger
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.ChargeEpochs(-1)
}

func TestProbsShapeAndSum(t *testing.T) {
	w, m, d := fixture(t)
	run, err := NewRun(m, d, Default(datahub.TaskNLP), w.Seed, "probs")
	if err != nil {
		t.Fatal(err)
	}
	run.TrainEpoch()
	for _, probs := range []*numeric.Frame{run.ValProbs(), run.TestProbs()} {
		if probs.D != d.Classes {
			t.Fatalf("prob width %d", probs.D)
		}
		for i := 0; i < probs.N; i++ {
			var sum float64
			for _, v := range probs.Row(i) {
				if v < 0 {
					t.Fatalf("negative probability %v", v)
				}
				sum += v
			}
			if sum < 0.999 || sum > 1.001 {
				t.Fatalf("probabilities sum to %v", sum)
			}
		}
	}
	if run.ValProbs().N != d.Val.Len() || run.TestProbs().N != d.Test.Len() {
		t.Fatal("prob counts do not match splits")
	}
}

func TestProbsConsistentWithAccuracy(t *testing.T) {
	w, m, d := fixture(t)
	run, err := NewRun(m, d, Default(datahub.TaskNLP), w.Seed, "probs-acc")
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		run.TrainEpoch()
	}
	want := run.TestAccuracy()
	if got := argmaxAccuracy(run.TestProbs(), d.Test.Y); got != want {
		t.Fatalf("argmax accuracy %v != TestAccuracy %v", got, want)
	}
}

// argmaxAccuracy scores per-example class scores (probabilities or logits)
// against labels.
func argmaxAccuracy(probs *numeric.Frame, ys []int) float64 {
	correct := 0
	for i, y := range ys {
		if numeric.ArgMax(probs.Row(i)) == y {
			correct++
		}
	}
	return float64(correct) / float64(len(ys))
}

// eagerTestAccuracy is a test-local copy of how a run scored the test split
// while NewRun still extracted all three splits and carved test logits out
// of its slab: the frame handed in was extracted before training started.
// It is the differential oracle for the on-demand path.
func eagerTestAccuracy(r *Run, featTest *numeric.Frame) float64 {
	logits := numeric.NewFrame(featTest.N, r.Dataset.Classes)
	r.weights.MulFrameBias(featTest, r.bias, logits)
	return argmaxAccuracy(logits, r.Dataset.Test.Y)
}

// TestTestSplitExtractedOnDemand: a run that is never asked about the test
// split never extracts it — NewRun plus the full epoch budget leaves the
// model holding train and val only — and the first TestAccuracy pays exactly
// one extraction for a value bit-identical to the eager path's.
func TestTestSplitExtractedOnDemand(t *testing.T) {
	w, m, d := fixture(t)
	_, oracleModel, _ := fixture(t) // same world and spec: an identical, separately cached model
	hp := Default(datahub.TaskNLP)

	eagerFrame := oracleModel.FeatureFrame(d.Test.X)
	oracle, err := NewRun(oracleModel, d, hp, w.Seed, "lazy")
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRun(m, d, hp, w.Seed, "lazy")
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < hp.Epochs; e++ {
		oracle.TrainEpoch()
		run.TrainEpoch()
	}
	if got := m.CachedSplits(); got != 2 {
		t.Fatalf("model holds %d cached splits after NewRun + %d epochs, want 2 (train, val)", got, hp.Epochs)
	}

	before := modelhub.Extractions()
	got := run.TestAccuracy()
	if n := modelhub.Extractions() - before; n != 1 {
		t.Fatalf("first TestAccuracy ran %d extraction passes, want 1", n)
	}
	if want := eagerTestAccuracy(oracle, eagerFrame); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("on-demand TestAccuracy %x, eager path %x", got, want)
	}
	if again := run.TestAccuracy(); again != got {
		t.Fatalf("second TestAccuracy %v, first %v", again, got)
	}
	run.TestProbs()
	if n := modelhub.Extractions() - before; n != 1 {
		t.Fatalf("%d extraction passes after repeated test reads, want 1", n)
	}
	if got := m.CachedSplits(); got != 3 {
		t.Fatalf("model holds %d cached splits after TestAccuracy, want 3", got)
	}
}

// stepBatch is the per-example SGD update TrainEpoch ran before sgdPass
// replaced it — MulVec over the head, bias, Softmax, then a second walk
// over every weight row — kept verbatim as the kernel's differential
// oracle, apart from its products, which are rounded before they are
// summed (float64(a*b)) as in the kernel, so that no platform fuses them.
func (r *Run) stepBatch(idx []int) {
	lr := r.HP.LearningRate / float64(len(idx))
	for _, i := range idx {
		x := r.featTrain.Row(i)
		y := r.Dataset.Train.Y[i]
		r.weights.MulVec(x, r.logits)
		for c := range r.logits {
			r.logits[c] += r.bias[c]
		}
		numeric.Softmax(r.logits, r.probs)
		for c := range r.probs {
			g := r.probs[c]
			if c == y {
				g -= 1
			}
			row := r.weights.Row(c)
			for j, xv := range x {
				row[j] -= float64(lr * (float64(g*xv) + float64(r.HP.L2*row[j])))
			}
			r.bias[c] -= float64(lr * g)
		}
	}
}

// oracleEpoch is the TrainEpoch that drove stepBatch, batch by batch.
func (r *Run) oracleEpoch() float64 {
	n := r.featTrain.N
	order := r.rng.PermInto(r.perm)
	for start := 0; start < n; start += r.HP.BatchSize {
		end := start + r.HP.BatchSize
		if end > n {
			end = n
		}
		r.stepBatch(order[start:end])
	}
	val := r.evaluate(r.featVal, &r.valLogits, r.Dataset.Val.Y)
	r.curve.Val = append(r.curve.Val, val)
	return val
}

// checkAgainstOracle trains two identically seeded runs for five epochs, one
// through TrainEpoch and one through oracleEpoch, and requires every float
// they hold — head weights, bias, the logits scratch and the validation
// curve — to be bit-equal.
func checkAgainstOracle(t *testing.T, m *modelhub.Model, d *datahub.Dataset, hp Hyperparams) {
	t.Helper()
	hp.Epochs = 5
	run, err := NewRun(m, d, hp, 42, "oracle")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRun(m, d, hp, 42, "oracle")
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < hp.Epochs; e++ {
		run.TrainEpoch()
		ref.oracleEpoch()
	}
	for _, f := range []struct {
		name      string
		got, want []float64
	}{
		{"weights", run.weights.Data, ref.weights.Data},
		{"bias", run.bias, ref.bias},
		{"logits", run.logits, ref.logits},
		{"val curve", run.curve.Val, ref.curve.Val},
	} {
		if len(f.got) != len(f.want) {
			t.Fatalf("%s: %d values, oracle has %d", f.name, len(f.got), len(f.want))
		}
		for i := range f.got {
			if math.Float64bits(f.got[i]) != math.Float64bits(f.want[i]) {
				t.Fatalf("%s[%d] = %x, oracle %x", f.name, i, f.got[i], f.want[i])
			}
		}
	}
}

// TestOnePassMatchesStepBatchOnCatalog: on every NLP and CV target (2, 3,
// 9 and 20 classes) the one-pass kernel leaves the run bit-equal to the
// per-example update.
func TestOnePassMatchesStepBatchOnCatalog(t *testing.T) {
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		w := synth.NewWorld(42)
		cat, err := datahub.NewTaskCatalog(w, task, datahub.Sizes{})
		if err != nil {
			t.Fatal(err)
		}
		repo, err := modelhub.NewTaskRepository(w, task)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range cat.Targets() {
			t.Run(d.Name, func(t *testing.T) {
				checkAgainstOracle(t, repo.Models()[0], d, Default(task))
			})
		}
	}
}

// TestOnePassMatchesStepBatchOnEdges covers what the catalog never hits: a
// batch size that does not divide the split (the short last batch steps
// with its own learning rate), batches of one and of the whole split or
// more, a one-example and an empty training split (sgdPass must not reach
// for a first example), and odd and even class counts past the catalog's
// small heads (the kernel pairs rows and finishes an odd one alone).
func TestOnePassMatchesStepBatchOnEdges(t *testing.T) {
	w, m, d := fixture(t) // 200 training examples, 3 classes
	for _, batch := range []int{1, 7, 24, 200, 500} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			hp := Default(datahub.TaskNLP)
			hp.BatchSize = batch
			checkAgainstOracle(t, m, d, hp)
		})
	}
	for _, n := range []int{0, 1, 2, 25} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			short := *d
			short.Train = datahub.Split{X: d.Train.X.Slice(0, n), Y: d.Train.Y[:n]}
			checkAgainstOracle(t, m, &short, Default(datahub.TaskNLP))
		})
	}
	for _, classes := range []int{5, 6, 7, 8} {
		t.Run(fmt.Sprintf("classes=%d", classes), func(t *testing.T) {
			wide, err := datahub.Generate(w, datahub.Spec{
				Name: fmt.Sprintf("trainer/ds%d", classes), Task: datahub.TaskNLP,
				Domains: map[string]float64{datahub.DomainNLI: 1},
				Classes: classes, Separability: 2, Noise: 1.6,
			}, datahub.Sizes{Train: 100, Val: 40, Test: 40})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, m, wide, Default(datahub.TaskNLP))
		})
	}
}

// TestSteadyEpochDoesNotAllocate: a warm run's epoch — shuffle, SGD pass,
// validation scoring, curve append — works entirely in the buffers NewRun
// carved. The curve is rewound so the append stays inside the capacity
// NewRun sized for the epoch budget, as every in-budget epoch does.
func TestSteadyEpochDoesNotAllocate(t *testing.T) {
	_, m, d := fixture(t)
	run, err := NewRun(m, d, Default(datahub.TaskNLP), 42, "")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		run.curve.Val = run.curve.Val[:0]
		run.TrainEpoch()
	})
	if allocs != 0 {
		t.Fatalf("a steady TrainEpoch allocates %v times, want 0", allocs)
	}
}

// TestCandidateRunAllocatesThreeTimes: what one fine-selection candidate
// costs against a warm feature cache (AllocsPerRun's warm-up call fills it,
// as any earlier run would have) — NewRun plus its full epoch budget — is
// the Run, its float64 slab and the shuffle order, and nothing per epoch.
func TestCandidateRunAllocatesThreeTimes(t *testing.T) {
	_, m, d := fixture(t)
	hp := Default(datahub.TaskNLP)
	candidate := func() {
		run, err := NewRun(m, d, hp, 42, "")
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < hp.Epochs; e++ {
			run.TrainEpoch()
		}
	}
	if allocs := testing.AllocsPerRun(10, candidate); allocs != 3 {
		t.Fatalf("NewRun + %d epochs allocates %v times, want 3 (Run, slab, perm)", hp.Epochs, allocs)
	}
}
