package experiments

import (
	"context"

	"fmt"
	"sort"

	"twophase/internal/core"
	"twophase/internal/numeric"
	"twophase/internal/recall"
)

// table6 reproduces Table VI: end-to-end runtime (including the proxy
// inference charge) and selected-model accuracy of the two-phase pipeline
// vs brute force and successive halving over the full repository.
func table6(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Table VI — end-to-end comparison",
		Header: []string{"dataset", "2PH epochs", "vs BF", "vs SH", "BF acc", "SH acc", "2PH acc"},
	}
	var worstGap float64
	for _, tgt := range allTargets {
		fw, err := e.Framework(tgt.task)
		if err != nil {
			return nil, err
		}
		d, err := fw.Catalog.Get(tgt.dataset)
		if err != nil {
			return nil, err
		}
		report, err := fw.Select(context.Background(), d)
		if err != nil {
			return nil, err
		}
		bf, err := fw.SelectWith(context.Background(), d, core.SelectOptions{Strategy: core.StrategyBF})
		if err != nil {
			return nil, err
		}
		sh, err := fw.SelectWith(context.Background(), d, core.SelectOptions{Strategy: core.StrategySH})
		if err != nil {
			return nil, err
		}
		twoPhase := report.TotalEpochs()
		t.AddRow(tgt.label,
			fmt.Sprintf("%.1f", twoPhase),
			fmt.Sprintf("%.2fx", float64(bf.Ledger.TrainEpochs())/twoPhase),
			fmt.Sprintf("%.2fx", float64(sh.Ledger.TrainEpochs())/twoPhase),
			bf.Outcome.WinnerTest, sh.Outcome.WinnerTest, report.Outcome.WinnerTest)
		if gap := bf.Outcome.WinnerTest - report.Outcome.WinnerTest; gap > worstGap {
			worstGap = gap
		}
	}
	t.Note("two-phase selection runs several-fold faster than SH and BF while staying near BF accuracy (worst gap %.3f)", worstGap)
	return t, nil
}

// table7 reproduces Table VII: for each target, the ground-truth best
// model, its accuracy, its rank within the recalled set when sorted by
// proxy score, and the average accuracy of the recalled models.
func table7(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Table VII — case study of recalled best models",
		Header: []string{"dataset", "best model", "acc", "R@CR", "avg acc (recalled)"},
	}
	for _, tgt := range allTargets {
		fw, err := e.Framework(tgt.task)
		if err != nil {
			return nil, err
		}
		d, err := fw.Catalog.Get(tgt.dataset)
		if err != nil {
			return nil, err
		}
		oracle, err := e.Oracle(tgt.task, tgt.dataset)
		if err != nil {
			return nil, err
		}
		rr, err := recall.CoarseRecall(fw.Matrix, fw.Repo, d, fw.Recall, nil)
		if err != nil {
			return nil, err
		}

		// Ground-truth best among the *recalled* models (the model the
		// fine-selection phase could at best pick), mirroring the paper's
		// "best selected model" per target.
		best, bestAcc := "", -1.0
		var recAcc []float64
		for _, n := range rr.Recalled {
			recAcc = append(recAcc, oracle[n])
			if oracle[n] > bestAcc {
				best, bestAcc = n, oracle[n]
			}
		}
		// Rank of the best model when recalled models sort by proxy score.
		type ps struct {
			name  string
			proxy float64
		}
		var byProxy []ps
		for _, n := range rr.Recalled {
			byProxy = append(byProxy, ps{n, rr.ProxyScores[n]})
		}
		sort.SliceStable(byProxy, func(i, j int) bool { return byProxy[i].proxy > byProxy[j].proxy })
		rank := -1
		for i, p := range byProxy {
			if p.name == best {
				rank = i
				break
			}
		}
		t.AddRow(tgt.label, best, bestAcc, rank, numeric.Mean(recAcc))
	}
	t.Note("best recalled models rank high by proxy score and beat the recalled average, including on out-of-domain targets (medical imaging)")
	return t, nil
}
