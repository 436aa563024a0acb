package selection

import (
	"context"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/perfmatrix"
	"twophase/internal/trainer"
)

// FineSelectOptions extends Config with the convergence-trend machinery of
// Algorithm 1.
type FineSelectOptions struct {
	Config
	// Matrix supplies the offline convergence records mined into trends.
	Matrix *perfmatrix.Matrix
	// Threshold is the filtering threshold of Table IV: a model is only
	// trend-filtered when a better-validation competitor's predicted
	// final performance exceeds the model's own prediction by more than
	// Threshold (as a proportion of the model's prediction). 0 is the
	// paper's default setting.
	Threshold float64
	// DisableTrendFilter turns Algorithm 1's fine-filter step off,
	// leaving its halving backstop as the only prune rule; used by the
	// ablation benchmark. That is successive halving's schedule and cost
	// but not its survivors — see the package comment on ties.
	DisableTrendFilter bool
}

// FineSelect runs Algorithm 1 and returns a single fully trained model.
func FineSelect(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, opts FineSelectOptions) (*Outcome, error) {
	s, err := search(ctx, models, d, opts.Config, 1, opts.prune)
	if err != nil {
		return nil, err
	}
	return s.winner(), nil
}

// prune is Algorithm 1's prune step: the trend filter, then the halving
// backstop (lines 8-10).
func (opts FineSelectOptions) prune(pool []*trainer.Run, vals []float64, stage, floor int) ([]bool, error) {
	keep := make([]bool, len(pool))
	for i := range keep {
		keep[i] = true
	}
	kept := len(pool)
	// Both rules walk the models from worst validation upward.
	order := numeric.ArgSortAsc(vals)

	if !opts.DisableTrendFilter && opts.Matrix != nil {
		// Predict each member's final performance by matching its
		// current validation accuracy against the model's mined
		// convergence trends at this stage (Eq. 5/6).
		preds := make([]float64, len(pool))
		for i, run := range pool {
			p, err := predictFinal(opts.Matrix, run.Model.Name, stage, vals[i])
			if err != nil {
				return nil, err
			}
			preds[i] = p
		}
		// Drop a model when some better-validation model's prediction
		// beats its own by more than the threshold proportion.
		for oi, i := range order {
			if kept <= floor {
				break
			}
			for _, j := range order[oi+1:] {
				if vals[j] > vals[i] && preds[j]-preds[i] > opts.Threshold*preds[i] {
					keep[i] = false
					kept--
					break
				}
			}
		}
	}

	limit := max(len(pool)/2, floor)
	for _, i := range order {
		if kept <= limit {
			break
		}
		if keep[i] {
			keep[i] = false
			kept--
		}
	}
	return keep, nil
}
