package selection

import (
	"context"
	"fmt"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/trainer"
)

// EnsembleSelect is the multi-model extension the paper positions as a
// drop-in for the fine-selection phase (§VI, §VII / the Palette line of
// work it cites): Algorithm 1's search stops shrinking the pool at k
// models, the survivors train out the budget, and the k best by final
// validation accuracy are combined by soft voting. A truncated search
// votes over its best-so-far survivors (still at most k).
func EnsembleSelect(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, opts FineSelectOptions, k int) (*Outcome, error) {
	if k < 1 {
		return nil, fmt.Errorf("selection: ensemble size %d < 1", k)
	}
	s, err := search(ctx, models, d, opts.Config, k, opts.prune)
	if err != nil {
		return nil, err
	}
	out := s.out

	finalVals := make([]float64, len(s.pool))
	for i, run := range s.pool {
		finalVals[i] = run.FinalVal()
	}
	order := numeric.ArgSortDesc(finalVals)
	members := make([]*trainer.Run, min(k, len(order)))
	for i := range members {
		members[i] = s.pool[order[i]]
		out.BestMemberTest = max(out.BestMemberTest, members[i].TestAccuracy())
	}
	out.Members = names(members)
	out.Winner = out.Members[0]
	out.WinnerVal = votingAccuracy(members, d.Val.Y, (*trainer.Run).ValProbs)
	out.WinnerTest = votingAccuracy(members, d.Test.Y, (*trainer.Run).TestProbs)
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
