// Package trainer implements the fine-tuning substrate: real stochastic-
// gradient training of a softmax head ("linear probe") on a model's frozen
// features. It substitutes for the paper's full fine-tuning (README,
// opening section: "All training is real") while producing genuine
// optimization dynamics — per-epoch validation and test curves,
// convergence speed tied to feature separability, and sensitivity to the
// learning rate — which the fine-selection phase mines.
//
// Runtime accounting follows the paper: the unit of cost is one training
// epoch over the target dataset's training split.
//
// A Run reads what its caller decides on. The online selection strategies
// decide on validation accuracy alone, so NewRun looks up the train and
// validation features only and Run.TrainEpoch scores the validation split
// and nothing else; the test split's features and scratch materialise the
// first time a run is asked about it (TestAccuracy, TestProbs — online, the
// finished selection's winner and ensemble members). FineTune, the offline
// path behind the performance matrix and the oracle, wants the whole test
// curve and records it itself after every epoch.
//
// An epoch walks the head once per training example: the loop that writes
// example k's weight update also accumulates example k+1's logits against
// the weights it has just written (sgdPass, fusedStep). It is the
// per-example sequence — logits, softmax, update — float for float, with
// the second pass over the weights folded into the first.
package trainer

import (
	"fmt"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
)

// Hyperparams controls one fine-tuning run.
type Hyperparams struct {
	// LearningRate of plain SGD on the softmax head. DefaultNLP/CV use
	// the paper's 3e-5 setting's analog; LowLR mirrors its 1e-5 ablation.
	LearningRate float64
	// BatchSize of each SGD minibatch.
	BatchSize int
	// Epochs is the full-convergence budget (5 NLP / 4 CV in the paper).
	Epochs int
	// L2 is the weight-decay coefficient.
	L2 float64
}

// Default returns the paper's training setting for a task family:
// 5 epochs for NLP, 4 for CV (§V.A), at the standard learning rate.
func Default(task string) Hyperparams {
	hp := Hyperparams{LearningRate: 0.35, BatchSize: 24, Epochs: 5, L2: 1e-4}
	if task == datahub.TaskCV {
		hp.Epochs = 4
	}
	return hp
}

// LowLR returns the appendix-A alternative setting (the 1e-5 analog of
// Fig. 8), used to check robustness to hyperparameters.
func LowLR(task string) Hyperparams {
	hp := Default(task)
	hp.LearningRate = 0.12
	return hp
}

// Curve holds the per-epoch validation and test accuracy of one run.
// Curve[t] is measured after epoch t+1 of training. FineTune fills both;
// a staged Run's Curve() carries Val only and leaves Test empty.
type Curve struct {
	Val  []float64
	Test []float64
}

// FinalVal returns the last validation accuracy (0 if untrained).
func (c Curve) FinalVal() float64 {
	if len(c.Val) == 0 {
		return 0
	}
	return c.Val[len(c.Val)-1]
}

// FinalTest returns the last test accuracy (0 if untrained).
func (c Curve) FinalTest() float64 {
	if len(c.Test) == 0 {
		return 0
	}
	return c.Test[len(c.Test)-1]
}

// Run is an in-progress fine-tuning of one model on one dataset. It
// supports the staged training that successive halving needs: train one
// epoch, look at validation accuracy, decide whether to continue.
type Run struct {
	Model   *modelhub.Model
	Dataset *datahub.Dataset
	HP      Hyperparams

	weights numeric.Matrix // classes x FeatureDim
	bias    []float64

	// Frozen feature frames, shared read-only with the model's
	// extraction cache — never written through. featTest stays nil until
	// the run is first asked about the test split (testFeatures).
	featTrain, featVal, featTest *numeric.Frame
	rng                          numeric.RNG
	curve                        Curve

	// scratch buffers reused across steps and epochs. The float64 scratch
	// every run needs (weights, bias, logits, probs, the validation logits
	// and the curve) is carved from one backing slab — see NewRun.
	logits, probs []float64
	valLogits     numeric.Frame
	tstLogits     *numeric.Frame // allocated by the first TestAccuracy
	perm          []int          // epoch shuffle order
}

// NewRun initializes a fresh head over the model's frozen train and
// validation features, which come from (and on first use fill) the model's
// shared extraction cache; the test split is not touched until the run is
// asked about it. All stochasticity (head init, batch shuffles) derives
// from the world-style triple (seed, model name, dataset name) plus the
// salt, so distinct hyperparameter settings can request distinct streams.
func NewRun(m *modelhub.Model, d *datahub.Dataset, hp Hyperparams, seed uint64, salt string) (*Run, error) {
	if hp.Epochs <= 0 || hp.BatchSize <= 0 || hp.LearningRate <= 0 {
		return nil, fmt.Errorf("trainer: invalid hyperparams %+v", hp)
	}
	if m.Task != d.Task {
		return nil, fmt.Errorf("trainer: model %q task %q does not match dataset %q task %q", m.Name, m.Task, d.Name, d.Task)
	}
	classes := d.Classes
	valN := d.Val.Len()
	// Every float64 buffer a training run needs comes out of one backing
	// slab — weights, bias, per-example logit/prob scratch, the validation
	// logits and the validation curve (capacity for the full epoch budget,
	// so in-budget appends never reallocate). One allocation instead of
	// one per buffer keeps a candidate run at three allocs total; see
	// TestCandidateRunAllocatesThreeTimes. Each carve is capacity-limited
	// so an overflowing append can never silently bleed into its neighbor.
	slab := make([]float64, classes*(modelhub.FeatureDim+3+valN)+hp.Epochs)
	carve := func(n int) []float64 {
		s := slab[:n:n]
		slab = slab[n:]
		return s
	}
	r := &Run{
		Model:     m,
		Dataset:   d,
		HP:        hp,
		weights:   numeric.Matrix{Rows: classes, Cols: modelhub.FeatureDim, Data: carve(classes * modelhub.FeatureDim)},
		bias:      carve(classes),
		rng:       numeric.NamedRNG(seed, "finetune", m.Name, d.Name, salt),
		logits:    carve(classes),
		probs:     carve(classes),
		valLogits: numeric.Frame{N: valN, D: classes, Data: carve(valN * classes)},
		perm:      make([]int, d.Train.Len()),
	}
	r.curve.Val = carve(hp.Epochs)[:0]
	for i := range r.weights.Data {
		r.weights.Data[i] = r.rng.Norm() * 0.01
	}
	// Frozen features come from the model's shared extraction cache:
	// every run over the same split reuses one contiguous frame.
	r.featTrain = m.FeatureFrame(d.Train.X)
	r.featVal = m.FeatureFrame(d.Val.X)
	return r, nil
}

// Curve returns a copy of the accuracy curve so far: the validation
// accuracy after each epoch. Test is empty — a staged run never scores the
// test split per epoch (see TrainEpoch).
func (r *Run) Curve() Curve {
	return Curve{Val: numeric.Clone(r.curve.Val)}
}

// FinalVal returns the validation accuracy recorded by the last epoch (0 if
// untrained), without copying the curve.
func (r *Run) FinalVal() float64 { return r.curve.FinalVal() }

// TrainEpoch performs one SGD pass over the training split, then records
// and returns the validation accuracy. It does not touch the test split:
// selection algorithms consult validation only, and pay for a test
// evaluation (TestAccuracy) only where they report one.
func (r *Run) TrainEpoch() float64 {
	r.sgdPass(r.rng.PermInto(r.perm))
	val := r.evaluate(r.featVal, &r.valLogits, r.Dataset.Val.Y)
	r.curve.Val = append(r.curve.Val, val)
	return val
}

// sgdPass applies one epoch of minibatch cross-entropy SGD, visiting the
// training examples in the given order. SGD is sequential — the weights an
// example sees depend on every example before it — but the head need not be
// walked twice per example (once for the logits, once for the update): the
// update of example k hands each weight it has just written straight to
// example k+1's dot product (fusedStep), so only the epoch's first example
// pays for a MulVec. The learning rate is the batch's, recomputed where a
// batch starts, so a short last batch steps with its own size.
//
// Every float comes from the same operands in the same order as the
// per-example form (logits, bias, softmax, then the update row by row),
// which the tests keep as their oracle; each product is rounded before it
// feeds an add (see the determinism rule on numeric.Frame).
func (r *Run) sgdPass(order []int) {
	n := len(order)
	if n == 0 {
		return
	}
	ys := r.Dataset.Train.Y
	x := r.featTrain.Row(order[0])
	r.weights.MulVec(x, r.logits)
	var lr float64
	for k, i := range order {
		if k%r.HP.BatchSize == 0 {
			lr = r.HP.LearningRate / float64(min(r.HP.BatchSize, n-k))
		}
		for c := range r.logits {
			r.logits[c] += r.bias[c]
		}
		// probs becomes the loss gradient with respect to the logits.
		numeric.Softmax(r.logits, r.probs)
		r.probs[ys[i]] -= 1
		for c, g := range r.probs {
			r.bias[c] -= float64(lr * g)
		}
		if k+1 == n {
			r.lastStep(x, lr)
			return
		}
		next := r.featTrain.Row(order[k+1])
		r.fusedStep(x, next, lr)
		x = next
	}
}

// fusedStep applies example x's weight update (gradient in r.probs) and
// leaves next's dot products against the updated weights in r.logits. Two
// rows share one inner loop: the dot products are latency-bound single
// accumulator chains (ascending j, the determinism rule) and overlap with
// the throughput-bound update instead of waiting behind it.
func (r *Run) fusedStep(x, next []float64, lr float64) {
	l2 := r.HP.L2
	d := r.weights.Cols
	w := r.weights.Data
	x, next = x[:d], next[:d]
	c := 0
	for ; c+2 <= len(r.probs); c += 2 {
		r0 := w[c*d : (c+1)*d]
		r1 := w[(c+1)*d : (c+2)*d]
		r0, r1 = r0[:len(x)], r1[:len(x)]
		g0, g1 := r.probs[c], r.probs[c+1]
		var s0, s1 float64
		for j, xv := range x {
			nv := next[j]
			w0, w1 := r0[j], r1[j]
			w0 -= float64(lr * (float64(g0*xv) + float64(l2*w0)))
			w1 -= float64(lr * (float64(g1*xv) + float64(l2*w1)))
			r0[j], r1[j] = w0, w1
			s0 += float64(w0 * nv)
			s1 += float64(w1 * nv)
		}
		r.logits[c], r.logits[c+1] = s0, s1
	}
	if c < len(r.probs) {
		row := w[c*d : (c+1)*d]
		row = row[:len(x)]
		g := r.probs[c]
		var s float64
		for j, xv := range x {
			wv := row[j]
			wv -= float64(lr * (float64(g*xv) + float64(l2*wv)))
			row[j] = wv
			s += float64(wv * next[j])
		}
		r.logits[c] = s
	}
}

// lastStep applies the weight update of the epoch's last example, which
// has no successor to compute logits for.
func (r *Run) lastStep(x []float64, lr float64) {
	l2 := r.HP.L2
	for c, g := range r.probs {
		row := r.weights.Row(c)
		for j, xv := range x {
			row[j] -= float64(lr * (float64(g*xv) + float64(l2*row[j])))
		}
	}
}

// evaluate returns classification accuracy of the current head, computing
// all logits in one batched bias-fused kernel over the split's frame.
// logits is the split's preallocated scratch frame.
func (r *Run) evaluate(feats, logits *numeric.Frame, ys []int) float64 {
	if feats.N == 0 {
		return 0
	}
	r.weights.MulFrameBias(feats, r.bias, logits)
	correct := 0
	for i := range ys {
		if numeric.ArgMax(logits.Row(i)) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(feats.N)
}

// ValProbs returns the current head's class-probability predictions for
// every validation example (rows sum to 1), one example per frame row.
// Used by ensemble selection. The caller owns the returned frame.
func (r *Run) ValProbs() *numeric.Frame { return r.probabilities(r.featVal) }

// TestProbs returns the current head's class-probability predictions for
// every test example. The caller owns the returned frame.
func (r *Run) TestProbs() *numeric.Frame { return r.probabilities(r.testFeatures()) }

func (r *Run) probabilities(feats *numeric.Frame) *numeric.Frame {
	out := numeric.NewFrame(feats.N, r.Dataset.Classes)
	r.weights.MulFrameBiasSoftmax(feats, r.bias, out)
	return out
}

// TestAccuracy returns the current held-out test accuracy.
func (r *Run) TestAccuracy() float64 {
	feats := r.testFeatures()
	if r.tstLogits == nil {
		r.tstLogits = numeric.NewFrame(feats.N, r.Dataset.Classes)
	}
	return r.evaluate(feats, r.tstLogits, r.Dataset.Test.Y)
}

// testFeatures looks the test split's frozen features up in the model's
// extraction cache the first time the run needs them: most candidates of a
// selection are dropped on validation accuracy and never do.
func (r *Run) testFeatures() *numeric.Frame {
	if r.featTest == nil {
		r.featTest = r.Model.FeatureFrame(r.Dataset.Test.X)
	}
	return r.featTest
}

// FineTune trains to the full epoch budget and returns the curve, test
// accuracy after every epoch included (the offline convergence records and
// the paper's plots want both).
func FineTune(m *modelhub.Model, d *datahub.Dataset, hp Hyperparams, seed uint64, salt string) (Curve, error) {
	run, err := NewRun(m, d, hp, seed, salt)
	if err != nil {
		return Curve{}, err
	}
	curve := Curve{Test: make([]float64, 0, hp.Epochs)}
	for e := 0; e < hp.Epochs; e++ {
		run.TrainEpoch()
		curve.Test = append(curve.Test, run.TestAccuracy())
	}
	curve.Val = run.Curve().Val
	return curve, nil
}
