package trainer

import (
	"context"
	"errors"
	"fmt"

	"twophase/internal/datahub"
	"twophase/internal/fanout"
	"twophase/internal/modelhub"
)

// FineTuneGrid fine-tunes every (model, dataset) cell of the grid and
// returns the curves in row-major order: curves[mi*len(datasets)+di] is
// models[mi] trained on datasets[di]. Cells are fanout.Each items under
// the given worker budget (fanout's width). Each cell owns an
// independent RNG stream (seed, model, dataset, salt) and a preassigned
// slot, so FineTuneGrid(workers=1) is bit-identical to FineTuneGrid(
// workers=N) for every N — the property the offline-build determinism
// suites pin.
func FineTuneGrid(ctx context.Context, models []*modelhub.Model, datasets []*datahub.Dataset, hp Hyperparams, seed uint64, salt string, workers int) ([]Curve, error) {
	curves := make([]Curve, len(models)*len(datasets))
	nd := len(datasets)
	err := fanout.Each(ctx, len(curves), workers, func(i int) (err error) {
		curves[i], err = FineTune(models[i/nd], datasets[i%nd], hp, seed, salt)
		return err
	})
	if err != nil {
		var p *fanout.Panic
		if errors.As(err, &p) {
			err = fmt.Errorf("trainer: fine-tune %s/%s: %w", models[p.Index/nd].Name, datasets[p.Index%nd].Name, err)
		}
		return nil, err
	}
	return curves, nil
}
