package selection

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"sync"

	"twophase/internal/trainer"
)

// trainStage trains every pool member for stageLen epochs and returns each
// member's latest validation accuracy, in pool order. With workers > 1 the
// members train concurrently on a bounded worker pool; results are still
// identical to the sequential pass because each trainer.Run owns its named
// RNG stream (seeded from world seed, model and dataset), members share no
// state, and results merge by fixed pool index. The stage's epoch cost is
// charged to the ledger once, after the barrier, so ledger contents do not
// depend on goroutine scheduling.
//
// The context is observed between pool members (sequentially) or between
// work pickups (in parallel): a canceled context aborts the stage with
// ctx.Err() instead of burning the remaining members' epochs. A canceled
// stage charges nothing — its partial results are discarded by the caller.
func trainStage(ctx context.Context, pool []*trainer.Run, stageLen, workers int, ledger *trainer.Ledger) ([]float64, error) {
	vals := make([]float64, len(pool))
	if workers > len(pool) {
		workers = len(pool)
	}
	errs := make([]error, len(pool))
	if workers <= 1 {
		for i, run := range pool {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			vals[i], errs[i] = trainMember(run, stageLen)
		}
		if err := firstErr(errs); err != nil {
			return nil, err
		}
		ledger.ChargeEpochs(len(pool) * stageLen)
		return vals, nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				vals[i], errs[i] = trainMember(pool[i], stageLen)
			}
		}()
	}
feed:
	for i := range pool {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	ledger.ChargeEpochs(len(pool) * stageLen)
	return vals, nil
}

// trainMember runs one pool member's stage epochs, converting a panic in
// the training kernel into an error: a bare panic on a pool goroutine
// would kill the whole process, taking every other in-flight selection
// with it. The recover keeps the stage's failure local to its request.
func trainMember(run *trainer.Run, stageLen int) (val float64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("selection: training %q panicked: %v", run.Model.Name, rec)
			log.Printf("%v\n%s", err, debug.Stack())
		}
	}()
	for e := 0; e < stageLen; e++ {
		val = run.TrainEpoch()
	}
	return val, nil
}

// firstErr returns the first error in pool-index order, so the reported
// failure does not depend on which worker lost the race.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// workers resolves Config.Workers: 0 or 1 means sequential, negative means
// one worker per available CPU.
func (c Config) workers() int {
	if c.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}
