package selection

import (
	"context"
	"errors"
	"fmt"

	"twophase/internal/fanout"
	"twophase/internal/trainer"
)

// trainStage trains every pool member one epoch and returns each
// member's latest validation accuracy, in pool order. Members train under
// fanout.Each at the given width; results are identical at every width
// because each trainer.Run owns its named RNG stream (seeded from world
// seed, model and dataset), members share no state, and results merge by
// fixed pool index. The stage's epoch cost is charged to the ledger once,
// after the barrier, so ledger contents do not depend on goroutine
// scheduling.
//
// A canceled context aborts the stage with ctx.Err() instead of burning
// the remaining members' epochs. A canceled stage charges nothing — its
// partial results are discarded by the caller.
func trainStage(ctx context.Context, pool []*trainer.Run, workers int, ledger *trainer.Ledger) ([]float64, error) {
	vals := make([]float64, len(pool))
	err := fanout.Each(ctx, len(pool), workers, func(i int) error {
		vals[i] = pool[i].TrainEpoch()
		return nil
	})
	if err != nil {
		var p *fanout.Panic
		if errors.As(err, &p) {
			err = fmt.Errorf("selection: training %q: %w", pool[p.Index].Model.Name, err)
		}
		return nil, err
	}
	ledger.ChargeEpochs(len(pool))
	return vals, nil
}
