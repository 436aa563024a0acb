package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"

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
	const nearBF, nearBFMin, fold = 0.05, 6, 2.0
	near, speedup := 0, math.Inf(1)
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
		vsBF, vsSH := float64(bf.Ledger.TrainEpochs())/twoPhase, float64(sh.Ledger.TrainEpochs())/twoPhase
		t.AddRow(tgt.label,
			fmt.Sprintf("%.1f", twoPhase),
			fmt.Sprintf("%.2fx", vsBF),
			fmt.Sprintf("%.2fx", vsSH),
			bf.Outcome.WinnerTest, sh.Outcome.WinnerTest, report.Outcome.WinnerTest)
		speedup = min(speedup, vsBF, vsSH)
		if report.Outcome.WinnerTest >= bf.Outcome.WinnerTest-nearBF {
			near++
		}
	}
	t.Claim("tab6.speedup", speedup >= fold, speedup,
		"2PH epochs at least %gx fewer than both SH's and BF's on every dataset; value: smallest speedup", fold)
	t.Claim("tab6.near-bf", near >= nearBFMin, float64(near),
		"2PH acc ≥ BF acc − %.2f on at least %d of the %d datasets; value: datasets where it holds", nearBF, nearBFMin, len(allTargets))
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
	var ranks []float64
	var chance float64 // a random order's expected rank among the recalled
	bestAboveAvg := true
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
		// "best selected model" per target, and its rank when the recalled
		// models sort by proxy score.
		best, bestAcc := 0, -1.0
		recAcc := make([]float64, len(rr.Recalled))
		proxies := make([]float64, len(rr.Recalled))
		for i, n := range rr.Recalled {
			recAcc[i], proxies[i] = oracle[n], rr.ProxyScores[n]
			if recAcc[i] > bestAcc {
				best, bestAcc = i, recAcc[i]
			}
		}
		rank := slices.Index(numeric.ArgSortDesc(proxies), best)
		t.AddRow(tgt.label, rr.Recalled[best], bestAcc, rank, numeric.Mean(recAcc))
		ranks = append(ranks, float64(rank))
		chance = float64(len(rr.Recalled)-1) / 2
		bestAboveAvg = bestAboveAvg && bestAcc > numeric.Mean(recAcc)
	}
	meanRank := numeric.Mean(ranks)
	t.Claim("tab7.rank-high", meanRank < chance && bestAboveAvg, meanRank,
		"mean R@CR < %g (a random order's expected rank) and best acc > recalled avg on every target; value: mean R@CR", chance)
	return t, nil
}
