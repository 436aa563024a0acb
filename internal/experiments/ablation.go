package experiments

import (
	"context"

	"twophase/internal/cluster"
	"twophase/internal/datahub"
	"twophase/internal/numeric"
	"twophase/internal/proxy"
	"twophase/internal/recall"
	"twophase/internal/selection"
)

// recallQuality computes the mean ground-truth accuracy of the models a
// prepared coarse-recall stage recalls, averaged over a task's four
// targets, and the representatives it proxy-scores per target.
func recallQuality(e *Env, task string, off *recall.Offline) (avgAcc float64, scored int, err error) {
	fw, err := e.Framework(task)
	if err != nil {
		return 0, 0, err
	}
	targets, err := e.Targets(task)
	if err != nil {
		return 0, 0, err
	}
	var accs []float64
	for _, d := range targets {
		oracle, err := e.Oracle(task, d.Name)
		if err != nil {
			return 0, 0, err
		}
		rr, err := off.Recall(fw.Repo, d, nil)
		if err != nil {
			return 0, 0, err
		}
		for _, n := range rr.Recalled {
			accs = append(accs, oracle[n])
		}
		scored += rr.ScoredModels
	}
	return numeric.Mean(accs), scored / len(targets), nil
}

// ablationTopK compares Eq. 1's top-k distance against plain Euclidean
// distance inside the recall clustering.
func ablationTopK(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Ablation — Eq. 1 top-k distance vs Euclidean",
		Header: []string{"task", "distance", "silhouette", "avg recalled acc"},
	}
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		fw, err := e.Framework(task)
		if err != nil {
			return nil, err
		}
		// Top-k (the paper's choice): the served clustering.
		vecs := fw.Matrix.Vectors().Rows2D()
		clTopK := fw.Offline.Clustering
		topk := cluster.TopKDistance(recall.SimilarityK)
		accTopK, _, err := recallQuality(e, task, fw.Offline)
		if err != nil {
			return nil, err
		}
		t.AddRow(task, "top-k", cluster.Silhouette(vecs, clTopK, topk), accTopK)

		// Euclidean at matched granularity: cut to the same cluster count.
		clEuc := cluster.Agglomerative(vecs, cluster.Euclidean, 0, clTopK.K, 1)
		// Recall with Euclidean requires a distance swap; approximate by
		// scaling the threshold so granularity matches (we reuse the
		// matched-K clustering's silhouette as the comparable number).
		t.AddRow(task, "euclidean", cluster.Silhouette(vecs, clEuc, cluster.Euclidean), "-")
	}
	t.Note("Eq. 1's top-k distance averages the k largest per-benchmark differences; euclidean weighs every benchmark")
	return t, nil
}

// ablationRepresentative compares representative-only proxy scoring
// against scoring every repository model directly: quality vs inference
// cost.
func ablationRepresentative(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Ablation — representative scoring vs scoring all models",
		Header: []string{"task", "strategy", "avg recalled acc", "proxy inferences"},
	}
	const comparable = 0.05
	var shortfall float64
	fewer := true
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		fw, err := e.Framework(task)
		if err != nil {
			return nil, err
		}
		// Representative-only (the framework's strategy).
		repAcc, repScored, err := recallQuality(e, task, fw.Offline)
		if err != nil {
			return nil, err
		}
		t.AddRow(task, "cluster representatives", repAcc, repScored)

		// Score-everything baseline.
		targets, err := e.Targets(task)
		if err != nil {
			return nil, err
		}
		var accs []float64
		for _, d := range targets {
			oracle, err := e.Oracle(task, d.Name)
			if err != nil {
				return nil, err
			}
			scores, err := recall.BruteForceScores(fw.Repo, d, fw.Recall.Scorer, nil)
			if err != nil {
				return nil, err
			}
			// recall score = avgAcc * proxy, as Eq. 2, over every model
			names := fw.Matrix.Models
			vals := make([]float64, len(names))
			for i, n := range names {
				vals[i] = fw.Matrix.AvgAcc(i) * scores[n]
			}
			for _, i := range numeric.ArgSortDesc(vals)[:10] {
				accs = append(accs, oracle[names[i]])
			}
		}
		t.AddRow(task, "score all models", numeric.Mean(accs), fw.Repo.Len())
		shortfall = max(shortfall, numeric.Mean(accs)-repAcc)
		fewer = fewer && repScored < fw.Repo.Len()
	}
	t.Claim("ablRep.fewer-passes", fewer && shortfall <= comparable, shortfall,
		"representatives need fewer proxy inferences than scoring all models and reach avg recalled acc ≥ its − %.2f on every task (§III.A's O(|MC|) vs O(|M|)); value: largest shortfall", comparable)
	return t, nil
}

// ablationTrendFilter measures what the convergence-trend filter adds over
// fine-selection's halving backstop alone, which is successive halving on
// the same config.
func ablationTrendFilter(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Ablation — convergence-trend filter on/off",
		Header: []string{"dataset", "variant", "epochs", "accuracy"},
	}
	const tolerance = 0.01
	var shortfall float64
	cheaper := true
	for _, tgt := range allTargets {
		fw, d, top, err := recalledTop(e, tgt.task, tgt.dataset)
		if err != nil {
			return nil, err
		}
		fs, err := fineSelect(e, fw, d, top, selection.FineSelectOptions{})
		if err != nil {
			return nil, err
		}
		cand, err := fw.Repo.Subset(top)
		if err != nil {
			return nil, err
		}
		sh, err := selection.SuccessiveHalving(context.Background(), cand.Models(), d, selection.Config{HP: fw.HP, Seed: e.Seed, Salt: "two-phase"})
		if err != nil {
			return nil, err
		}
		t.AddRow(tgt.label, "with trend filter", fs.Ledger.TrainEpochs(), fs.WinnerTest)
		t.AddRow(tgt.label, "halving backstop only", sh.Ledger.TrainEpochs(), sh.WinnerTest)
		cheaper = cheaper && fs.Ledger.TrainEpochs() < sh.Ledger.TrainEpochs()
		shortfall = max(shortfall, sh.WinnerTest-fs.WinnerTest)
	}
	t.Claim("ablTrend.saves-epochs", cheaper && shortfall <= tolerance, shortfall,
		"with the trend filter: fewer epochs than the halving backstop alone (SH's cost) and acc ≥ its − %.2f on every dataset; value: largest acc shortfall", tolerance)
	return t, nil
}

// ablationProxy compares proxy scorers inside coarse recall.
func ablationProxy(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Ablation — proxy scorer choice in coarse recall",
		Header: []string{"task", "scorer", "avg recalled acc"},
	}
	scorers := []proxy.Scorer{
		proxy.CalibratedLEEP{},
		proxy.LEEP{},
		proxy.NCE{},
		proxy.KNN{},
		proxy.Ensemble{Scorers: []proxy.Scorer{proxy.CalibratedLEEP{}, proxy.KNN{}}},
	}
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		fw, err := e.Framework(task)
		if err != nil {
			return nil, err
		}
		for _, s := range scorers {
			// The scorer acts at recall time: recall from the served clustering.
			opts := fw.Recall
			opts.Scorer = s
			off, err := recall.Rehydrate(fw.Matrix, opts, fw.RecallArtifact())
			if err != nil {
				return nil, err
			}
			acc, _, err := recallQuality(e, task, off)
			if err != nil {
				return nil, err
			}
			t.AddRow(task, s.Name(), acc)
		}
	}
	t.Note("calibrated LEEP is the default; the ensemble implements §VII's multi-proxy future-work direction")
	return t, nil
}
