package selection

import (
	"context"
	"errors"
	"fmt"

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
	// Matrix supplies the offline convergence records mined into trends;
	// FineSelect and EnsembleSelect refuse to run without one.
	Matrix *perfmatrix.Matrix
	// Threshold is the filtering threshold of Table IV: a model is only
	// trend-filtered when a better-validation competitor's predicted
	// final performance exceeds the model's own prediction by more than
	// Threshold (as a proportion of the model's prediction). 0 is the
	// paper's default setting.
	Threshold float64
}

// FineSelect runs Algorithm 1 and returns a single fully trained model.
func FineSelect(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, opts FineSelectOptions) (*Outcome, error) {
	s, err := opts.search(ctx, models, d, 1)
	if err != nil {
		return nil, err
	}
	return s.winner(), nil
}

// search is the staged search with Algorithm 1's prune step down to floor
// survivors. Without a matrix there are no trends to filter with, so it is
// an error rather than successive halving in disguise.
func (opts FineSelectOptions) search(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, floor int) (survivors, error) {
	if opts.Matrix == nil {
		return survivors{}, errors.New("selection: no performance matrix to mine trends from")
	}
	return search(ctx, models, d, opts.Config, floor, opts.prune)
}

// prune is Algorithm 1's prune step: the trend filter, then halve over
// what it kept (the halving backstop, lines 8-10). Each member's final
// performance is predicted by matching its current validation accuracy
// against the model's mined convergence trends at this stage (Eq. 5/6).
func (opts FineSelectOptions) prune(pool []*trainer.Run, vals []float64, stage, floor int) ([]bool, error) {
	preds := make([]float64, len(pool))
	for i, run := range pool {
		p, err := predictFinal(opts.Matrix, run.Model.Name, stage, vals[i])
		if err != nil {
			return nil, err
		}
		preds[i] = p
	}
	return halve(trendFilter(vals, preds, opts.Threshold, floor), vals, floor), nil
}

// predictFinal matches val against the model's stage trends and returns
// the matched trend's mean final test accuracy (Eq. 6).
func predictFinal(m *perfmatrix.Matrix, model string, stage int, val float64) (float64, error) {
	trends, err := m.Trends(model, stage)
	if err != nil {
		return 0, err
	}
	idx := perfmatrix.MatchTrend(trends, val)
	if idx < 0 {
		return 0, fmt.Errorf("selection: no trends for model %s", model)
	}
	return trends[idx].Test, nil
}

// trendFilter walks the members from worst validation upward and drops
// one when some better-validation member's prediction beats its own by
// more than the threshold proportion, while more than floor remain.
func trendFilter(vals, preds []float64, threshold float64, floor int) []bool {
	drop := make([]bool, len(vals))
	left := len(vals)
	order := numeric.ArgSortAsc(vals)
	for oi, i := range order {
		if left <= floor {
			break
		}
		for _, j := range order[oi+1:] {
			if vals[j] > vals[i] && preds[j]-preds[i] > threshold*preds[i] {
				drop[i] = true
				left--
				break
			}
		}
	}
	return drop
}
