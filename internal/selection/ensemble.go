package selection

import (
	"context"
	"fmt"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/trainer"
)

// EnsembleOutcome reports a multi-model selection (§VII / the Palette
// line of work the paper cites): instead of a single winner, the top-k
// survivors of fine-selection are trained to the full budget and combined
// by soft voting.
type EnsembleOutcome struct {
	// Members are the ensembled model names, best validation first.
	Members []string
	// EnsembleVal / EnsembleTest are the soft-voting ensemble's
	// accuracies.
	EnsembleVal, EnsembleTest float64
	// BestSingleTest is the best member's individual test accuracy, for
	// judging the ensemble's lift.
	BestSingleTest float64
	// Ledger is the accumulated epoch cost.
	Ledger trainer.Ledger
	// Stages records the surviving pool at each training stage.
	Stages [][]string
	// Truncated / TruncatedBy report an anytime stop at the config's
	// budget: the members are then the best-so-far survivors (still at
	// most k, ranked by their current validation accuracy).
	Truncated   bool
	TruncatedBy string
}

// EnsembleSelect runs Algorithm 1's staged filtering but stops shrinking
// the pool at k models, trains the survivors to the full budget, and
// returns their soft-voting ensemble. With k=1 it degenerates to
// FineSelect. The paper positions multi-model selection as a drop-in
// extension of the fine-selection phase (§VI, §VII). A canceled context
// aborts mid-stage with ctx.Err().
func EnsembleSelect(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, opts FineSelectOptions, k int) (*EnsembleOutcome, error) {
	if k < 1 {
		return nil, fmt.Errorf("selection: ensemble size %d < 1", k)
	}
	runs, err := newRuns(models, d, opts.Config)
	if err != nil {
		return nil, err
	}
	pool := names(models)
	out := &EnsembleOutcome{}

	completed := 0
	for _, stageLen := range opts.stagePlan() {
		if by, stop := opts.budgetStop(out.Ledger.TrainEpochs(), len(pool)*stageLen); stop {
			out.Truncated, out.TruncatedBy = true, by
			break
		}
		out.Stages = append(out.Stages, append([]string(nil), pool...))
		vals, err := trainStage(ctx, runs, pool, stageLen, opts.workers(), &out.Ledger)
		if err != nil {
			return nil, err
		}
		completed += stageLen
		stage := completed - 1
		if len(pool) <= k {
			continue
		}

		keepMask := make([]bool, len(pool))
		for i := range keepMask {
			keepMask[i] = true
		}
		if !opts.DisableTrendFilter && opts.Matrix != nil {
			preds := make([]float64, len(pool))
			for i, name := range pool {
				p, err := PredictFinal(opts.Matrix, name, stage, vals[i], opts.TrendClusters)
				if err != nil {
					return nil, err
				}
				preds[i] = p
			}
			order := numeric.ArgSortAsc(vals)
			for oi, i := range order {
				dominated := false
				for _, j := range order[oi+1:] {
					if !keepMask[j] || vals[j] <= vals[i] {
						continue
					}
					if preds[j]-preds[i] > opts.Threshold*preds[i] {
						dominated = true
						break
					}
				}
				if dominated && remaining(keepMask) > k {
					keepMask[i] = false
				}
			}
		}
		// Halving backstop, floored at the ensemble size.
		limit := len(pool) / 2
		if limit < k {
			limit = k
		}
		if remaining(keepMask) > limit {
			order := numeric.ArgSortAsc(vals)
			for _, i := range order {
				if remaining(keepMask) <= limit {
					break
				}
				if keepMask[i] {
					keepMask[i] = false
				}
			}
		}
		next := pool[:0:0]
		for i, keep := range keepMask {
			if keep {
				next = append(next, pool[i])
			}
		}
		pool = next
	}

	// Rank survivors by final validation, keep at most k.
	finalVals := make([]float64, len(pool))
	for i, name := range pool {
		finalVals[i] = runs[name].FinalVal()
	}
	order := numeric.ArgSortDesc(finalVals)
	if len(order) > k {
		order = order[:k]
	}
	for _, i := range order {
		out.Members = append(out.Members, pool[i])
	}

	// Soft-voting ensemble over the members' probability predictions.
	memberRuns := make([]*trainer.Run, len(out.Members))
	for i, name := range out.Members {
		memberRuns[i] = runs[name]
		if t := runs[name].TestAccuracy(); t > out.BestSingleTest {
			out.BestSingleTest = t
		}
	}
	out.EnsembleVal = votingAccuracy(memberRuns, d.Val.Y, (*trainer.Run).ValProbs)
	out.EnsembleTest = votingAccuracy(memberRuns, d.Test.Y, (*trainer.Run).TestProbs)
	return out, nil
}

// votingAccuracy averages member probability predictions and scores the
// argmax against the labels. Each member contributes one probability
// frame (an example per row).
func votingAccuracy(members []*trainer.Run, labels []int, probsOf func(*trainer.Run) *numeric.Frame) float64 {
	if len(members) == 0 || len(labels) == 0 {
		return 0
	}
	all := make([]*numeric.Frame, len(members))
	for i, m := range members {
		all[i] = probsOf(m)
	}
	correct := 0
	avg := make([]float64, all[0].D)
	for ex := range labels {
		for c := range avg {
			avg[c] = 0
		}
		for _, probs := range all {
			for c, p := range probs.Row(ex) {
				avg[c] += p
			}
		}
		if numeric.ArgMax(avg) == labels[ex] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
