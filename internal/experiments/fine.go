package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"twophase/internal/cluster"
	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/numeric"
	"twophase/internal/perfmatrix"
	"twophase/internal/selection"
	"twophase/internal/trainer"
)

const mnliName = "LysandreJik/glue-mnli-train"

// fig4Model is the model whose per-benchmark convergence Fig. 4 plots.
const fig4Model = "DoyyingFace/bert-asian-hate-tweets-asian-unclean-freeze-4"

// recalledTop returns a target's framework and dataset with its
// coarse-recalled top-10 models.
func recalledTop(e *Env, task, dataset string) (*core.Framework, *datahub.Dataset, []string, error) {
	fw, err := e.Framework(task)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err := fw.Catalog.Get(dataset)
	if err != nil {
		return nil, nil, nil, err
	}
	rr, err := fw.Offline.Recall(fw.Repo, d, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return fw, d, rr.Recalled, nil
}

// fineSelect runs Algorithm 1 over the named models. opts.Matrix is the
// framework's; a zero opts.Config is the evaluation's two-phase setup.
func fineSelect(e *Env, fw *core.Framework, d *datahub.Dataset, names []string, opts selection.FineSelectOptions) (*selection.Outcome, error) {
	cand, err := fw.Repo.Subset(names)
	if err != nil {
		return nil, err
	}
	if opts.Salt == "" {
		opts.Config = selection.Config{HP: fw.HP, Seed: e.Seed, Salt: "two-phase"}
	}
	opts.Matrix = fw.Matrix
	return selection.FineSelect(context.Background(), cand.Models(), d, opts)
}

// curvesTable renders per-epoch validation curves plus final test accuracy
// for a set of models on a dataset under the given hyperparameters.
func curvesTable(e *Env, title string, fw *core.Framework, d *datahub.Dataset, models []string, hp trainer.Hyperparams) (*Table, error) {
	t := &Table{Title: title}
	t.Header = []string{"model"}
	for i := 0; i < hp.Epochs; i++ {
		t.Header = append(t.Header, fmt.Sprintf("val@%d", i+1))
	}
	t.Header = append(t.Header, "final test")

	type rec struct {
		name  string
		curve trainer.Curve
	}
	var recs []rec
	for _, name := range models {
		m, err := fw.Repo.Get(name)
		if err != nil {
			return nil, err
		}
		curve, err := trainer.FineTune(m, d, hp, e.Seed, "curves")
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec{name, curve})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].curve.Test > recs[j].curve.Test })

	// Correlation between epoch-1 validation and final test accuracy —
	// the early-stopping premise of §IV.A.
	var early, final []float64
	for _, r := range recs {
		cells := []interface{}{r.name}
		for _, v := range r.curve.Val {
			cells = append(cells, v)
		}
		cells = append(cells, r.curve.Test)
		t.AddRow(cells...)
		early = append(early, r.curve.Val[0])
		final = append(final, r.curve.Test)
	}
	t.Note("pearson(val@1, final test) = %.3f", numeric.PearsonCorrelation(early, final))
	return t, nil
}

// fig3 reproduces Fig. 3: validation/test curves of the top-10 recalled
// models on MNLI at the default learning rate.
func fig3(e *Env) (*Table, error) {
	fw, d, top, err := recalledTop(e, datahub.TaskNLP, mnliName)
	if err != nil {
		return nil, err
	}
	return curvesTable(e, "Fig. 3 — top-10 curves on MNLI (default lr)", fw, d, top, trainer.Default(datahub.TaskNLP))
}

// fig8 reproduces appendix Fig. 8: the same models trained under the low
// learning rate, checking robustness to hyperparameters.
func fig8(e *Env) (*Table, error) {
	fw, d, top, err := recalledTop(e, datahub.TaskNLP, mnliName)
	if err != nil {
		return nil, err
	}
	t, err := curvesTable(e, "Fig. 8 — top-10 curves on MNLI (low lr)", fw, d, top, trainer.LowLR(datahub.TaskNLP))
	if err != nil {
		return nil, err
	}
	// The appendix claims the method's outcome is consistent across the
	// two settings; run fine-selection under both.
	for _, hp := range []struct {
		name string
		hp   trainer.Hyperparams
	}{
		{"default lr", trainer.Default(datahub.TaskNLP)},
		{"low lr", trainer.LowLR(datahub.TaskNLP)},
	} {
		out, err := fineSelect(e, fw, d, top, selection.FineSelectOptions{
			Config: selection.Config{HP: hp.hp, Seed: e.Seed, Salt: "fig8-" + hp.name},
		})
		if err != nil {
			return nil, err
		}
		t.Note("fine-selection under %s: winner %s, acc %.3f, %d epochs", hp.name, out.Winner, out.WinnerTest, out.Ledger.TrainEpochs())
	}
	return t, nil
}

// fig4 reproduces Fig. 4: one model's validation/test accuracies over all
// benchmark datasets fall into a small number of convergence groups.
func fig4(e *Env) (*Table, error) {
	fw, err := e.Framework(datahub.TaskNLP)
	if err != nil {
		return nil, err
	}
	lastStage := fw.HP.Epochs - 1
	trends, err := fw.Matrix.Trends(fig4Model, lastStage)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig. 4 — convergence groups of " + fig4Model,
		Header: []string{"group", "datasets", "mean val", "mean final test", "members"},
	}
	for i, tr := range trends {
		members := make([]string, len(tr.Members))
		for j, d := range tr.Members {
			members[j] = fw.Matrix.Datasets[d]
		}
		t.AddRow(fmt.Sprintf("G%d", i+1), len(tr.Members), tr.Val, tr.Test, joinTrunc(members, 3))
	}
	t.Note("the paper observes ~4 distinct convergence groups per model; groups here are mined by 1-D clustering of validation accuracy")
	return t, nil
}

// fig6 reproduces Fig. 6: (blue) silhouette of first-validation trend
// clustering vs random clustering, and (red) leave-one-out relative error
// of trend-based final-test prediction vs predicting the global mean.
func fig6(e *Env) (*Table, error) {
	fw, err := e.Framework(datahub.TaskNLP)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig. 6 — trend clustering quality and prediction error (NLP models)",
		Header: []string{"model", "sil(val)", "sil(random)", "relerr(trend)", "relerr(mean)"},
	}
	var silWins, errWins int
	for mi, model := range fw.Matrix.Models {
		stage0, finals := fw.Matrix.ValAt(mi, 0), fw.Matrix.Vector(mi)
		// Silhouette of the 1-D validation clustering vs a random one.
		trends := perfmatrix.MineTrends(stage0, finals)
		assign := make([]int, len(stage0))
		for g, tr := range trends {
			for _, i := range tr.Members {
				assign[i] = g
			}
		}
		points := make([][]float64, len(stage0))
		for i, v := range stage0 {
			points[i] = []float64{v}
		}
		valCl := cluster.Clustering{Assign: assign, K: len(trends)}
		silVal := cluster.Silhouette(points, valCl, cluster.Euclidean)
		rng := numeric.NewNamedRNG(e.Seed, "fig6-random", model)
		silRand := cluster.Silhouette(points, cluster.RandomClustering(len(stage0), len(trends), rng), cluster.Euclidean)

		// Leave-one-out prediction error: for each benchmark as pseudo-
		// target, predict its final test accuracy the way selection does
		// (Eq. 5/6: the final of the trend its first validation matches),
		// from trends mined without it, vs predicting the mean of the
		// other benchmarks' finals.
		var errTrend, errMean []float64
		for hold := range stage0 {
			var trainVal, trainFinal []float64
			for i := range stage0 {
				if i != hold {
					trainVal = append(trainVal, stage0[i])
					trainFinal = append(trainFinal, finals[i])
				}
			}
			loo := perfmatrix.MineTrends(trainVal, trainFinal)
			pred := loo[perfmatrix.MatchTrend(loo, stage0[hold])].Test
			actual := finals[hold]
			if actual == 0 {
				continue
			}
			errTrend = append(errTrend, math.Abs(pred-actual)/actual)
			errMean = append(errMean, math.Abs(numeric.Mean(trainFinal)-actual)/actual)
		}
		et, em := numeric.Mean(errTrend), numeric.Mean(errMean)
		t.AddRow(model, silVal, silRand, et, em)
		if silVal > silRand {
			silWins++
		}
		if et < em {
			errWins++
		}
	}
	n := len(fw.Matrix.Models)
	t.Claim("fig6.val-beats-random", silWins == n, float64(silWins),
		"sil(val) > sil(random) for every one of the %d models; value: models where it holds", n)
	t.Claim("fig6.trend-beats-mean", errWins == n, float64(errWins),
		"relerr(trend) < relerr(mean) for every one of the %d models; value: models where it holds", n)
	return t, nil
}

// thresholdTargets are Table IV's four datasets.
var thresholdTargets = []struct{ task, dataset, label string }{
	{datahub.TaskNLP, mnliName, "MNLI"},
	{datahub.TaskNLP, "super_glue/multirc", "MultiRC"},
	{datahub.TaskCV, "nelorth/oxford-flowers", "Flowers"},
	{datahub.TaskCV, "trpakov/chest-xray-classification", "X-Ray"},
}

// table4 reproduces Table IV: fine-selection accuracy and runtime under
// filtering thresholds 0%, 1%, 5%, 10%.
func table4(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Table IV — filtering threshold sweep",
		Header: []string{"dataset", "metric", "0%", "1%", "5%", "10%"},
	}
	var worstDrop float64
	epochsMonotone, extraEpochs := true, 0
	for _, tgt := range thresholdTargets {
		fw, d, top, err := recalledTop(e, tgt.task, tgt.dataset)
		if err != nil {
			return nil, err
		}
		accRow := []interface{}{tgt.label, "accuracy"}
		timeRow := []interface{}{tgt.label, "runtime"}
		var prevAcc float64
		var prevEpochs int
		for i, th := range []float64{0, 0.01, 0.05, 0.10} {
			out, err := fineSelect(e, fw, d, top, selection.FineSelectOptions{Threshold: th})
			if err != nil {
				return nil, err
			}
			acc, epochs := out.WinnerTest, out.Ledger.TrainEpochs()
			accRow = append(accRow, acc)
			timeRow = append(timeRow, epochs)
			if i > 0 {
				worstDrop = max(worstDrop, prevAcc-acc)
				epochsMonotone = epochsMonotone && epochs >= prevEpochs
				extraEpochs += epochs - prevEpochs
			}
			prevAcc, prevEpochs = acc, epochs
		}
		t.AddRow(accRow...)
		t.AddRow(timeRow...)
	}
	t.Claim("tab4.accuracy-monotone", worstDrop == 0, worstDrop,
		"accuracy never drops from one threshold to the next larger on any dataset; value: largest drop")
	t.Claim("tab4.epochs-monotone", epochsMonotone, float64(extraEpochs),
		"epochs never fall from one threshold to the next larger on any dataset; value: total extra epochs, 10%% over 0%%")
	return t, nil
}

// allTargets enumerates the 8 evaluation targets with display labels.
var allTargets = []struct{ task, dataset, label string }{
	{datahub.TaskNLP, "tweet_eval", "Tweet"},
	{datahub.TaskNLP, mnliName, "MNLI"},
	{datahub.TaskNLP, "super_glue/multirc", "MultiRC"},
	{datahub.TaskNLP, "super_glue/boolq", "Boolq"},
	{datahub.TaskCV, "trpakov/chest-xray-classification", "X-Ray"},
	{datahub.TaskCV, "albertvillanova/medmnist-v2", "MedMNIST"},
	{datahub.TaskCV, "nelorth/oxford-flowers", "Flowers"},
	{datahub.TaskCV, "beans", "Beans"},
}

// poolRun is SH's and FS's outcome over one candidate pool.
type poolRun struct {
	models []string
	sh, fs *selection.Outcome
}

// shAndFS runs SH and FS over a target's recalled top-10 and over the
// whole repository: the two pools of Fig. 7 and Table V.
func shAndFS(e *Env, task, dataset string) (*core.Framework, [2]poolRun, error) {
	var pools [2]poolRun
	fw, d, top, err := recalledTop(e, task, dataset)
	if err != nil {
		return nil, pools, err
	}
	for i, models := range [][]string{top, fw.Matrix.Models} {
		cand, err := fw.Repo.Subset(models)
		if err != nil {
			return nil, pools, err
		}
		sh, err := selection.SuccessiveHalving(context.Background(), cand.Models(), d, selection.Config{HP: fw.HP, Seed: e.Seed, Salt: "successive-halving"})
		if err != nil {
			return nil, pools, err
		}
		fs, err := fineSelect(e, fw, d, models, selection.FineSelectOptions{})
		if err != nil {
			return nil, pools, err
		}
		pools[i] = poolRun{models, sh, fs}
	}
	return fw, pools, nil
}

// fig7 reproduces Fig. 7: the accuracy of the model selected by SH vs FS
// over the recalled top-10 and over the full repository, with the best and
// worst accuracies among the top-10 for context.
func fig7(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Fig. 7 — selected-model accuracy, SH vs FS",
		Header: []string{"dataset", "pool", "SH acc", "FS acc", "best@10", "worst@10"},
	}
	var fsAtLeast, cells int
	for _, tgt := range allTargets {
		fw, pools, err := shAndFS(e, tgt.task, tgt.dataset)
		if err != nil {
			return nil, err
		}
		oracle, err := e.Oracle(tgt.task, tgt.dataset)
		if err != nil {
			return nil, err
		}
		var topAcc []float64
		for _, n := range pools[0].models {
			topAcc = append(topAcc, oracle[n])
		}
		best10, worst10 := numeric.Max(topAcc), numeric.Min(topAcc)
		for i, label := range []string{"top-10", fmt.Sprintf("all-%d", fw.Repo.Len())} {
			sh, fs := pools[i].sh.WinnerTest, pools[i].fs.WinnerTest
			t.AddRow(tgt.label, label, sh, fs, best10, worst10)
			cells++
			if fs >= sh-0.01 {
				fsAtLeast++
			}
		}
	}
	t.Claim("fig7.fs-matches-sh", 2*fsAtLeast > cells, float64(fsAtLeast),
		"FS acc ≥ SH acc − 0.01 in more than half of the %d (dataset, pool) cells; value: cells where it holds", cells)
	return t, nil
}

// table5 reproduces Table V: runtime in epochs for BF, SH and FS over the
// recalled top-10 and the full repository, with speedups vs BF.
func table5(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Table V — selection runtime (training epochs)",
		Header: []string{"dataset", "pool", "BF", "SH", "SH speedup", "FS", "FS speedup"},
	}
	ordered, fsLead := true, math.MaxInt
	marginGrowth := math.Inf(1)
	for _, tgt := range allTargets {
		fw, pools, err := shAndFS(e, tgt.task, tgt.dataset)
		if err != nil {
			return nil, err
		}
		var shOverFS [2]float64
		for i, pool := range pools {
			bf := len(pool.models) * fw.HP.Epochs
			sh, fs := pool.sh.Ledger.TrainEpochs(), pool.fs.Ledger.TrainEpochs()
			t.AddRow(tgt.label, fmt.Sprint(len(pool.models)), bf,
				sh, fmt.Sprintf("%.2fx", float64(bf)/float64(sh)),
				fs, fmt.Sprintf("%.2fx", float64(bf)/float64(fs)))
			ordered = ordered && fs < sh && sh < bf
			fsLead = min(fsLead, sh-fs)
			shOverFS[i] = float64(sh) / float64(fs)
		}
		marginGrowth = min(marginGrowth, shOverFS[1]-shOverFS[0])
	}
	t.Claim("tab5.order", ordered, float64(fsLead),
		"FS < SH < BF epochs on every (dataset, pool) row; value: smallest SH − FS")
	t.Claim("tab5.margin-grows", marginGrowth > 0, marginGrowth,
		"SH/FS epoch ratio larger at the full pool than at the top-10 pool on every dataset; value: smallest increase")
	return t, nil
}
