// Package fanout is the module's one bounded fan-out: n independent,
// index-addressed pieces of work, each writing a slot its caller
// preassigned, at most `workers` at a time. The perf-matrix grid, the
// distance matrix, a fine-selection round, a batch's targets, a gateway
// scatter are all this shape, and here is where they agree on:
//
//   - width: workers <= 0 is one per CPU (runtime.GOMAXPROCS) — the one
//     place the module says so, every Workers / BuildWorkers / Concurrency
//     field and flag is passed here as it stands; workers > n is n; a width
//     of 1 runs in index order on the caller's goroutine (no goroutine, no
//     channel); indices are claimed one at a time, so uneven items never
//     idle a worker. No result depends on the width.
//   - cancellation: ctx is checked as each index is claimed. Once it is
//     done no further item starts, running items finish, and the ctx.Err()
//     that stopped the claim is the result.
//   - error: otherwise the error of the lowest failing index, never
//     whichever worker lost the race.
//   - panic: a panicking item becomes that index's *Panic, its stack
//     logged here, once — a pool goroutine has no caller to unwind into,
//     so an unrecovered panic there would take the process down.
package fanout

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic is the error a panicking item becomes.
type Panic struct {
	Index int // the item that panicked
	Value any // what it panicked with
}

func (p *Panic) Error() string {
	return fmt.Sprintf("fanout: item %d panicked: %v", p.Index, p.Value)
}

// Each calls fn(i) for every i in [0, n) and returns nil when all of them
// did, ctx.Err() when cancellation kept some from starting, and otherwise
// the error of the lowest failing index.
func Each(ctx context.Context, n, workers int, fn func(i int) error) error {
	errs, stopped := run(ctx, n, workers, fn)
	if stopped != nil {
		return stopped
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Errors is Each for callers that answer per item: it returns every
// index's own error. An index cancellation kept from starting stays nil —
// the caller, which knows what an item that ran leaves behind, reports
// ctx.Err() for it.
func Errors(ctx context.Context, n, workers int, fn func(i int) error) []error {
	errs, _ := run(ctx, n, workers, fn)
	return errs
}

func run(ctx context.Context, n, workers int, fn func(i int) error) (errs []error, stopped error) {
	errs = make([]error, n)
	var next atomic.Int64
	var stop atomic.Pointer[error]
	worker := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if err := ctx.Err(); err != nil {
				stop.Store(&err)
				return
			}
			errs[i] = call(fn, i)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}
	if err := stop.Load(); err != nil {
		return errs, *err
	}
	return errs, nil
}

func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &Panic{Index: i, Value: v}
			slog.Error("fanout.panic", slog.Int("n", i), slog.Any("err", err), slog.String("stack", string(debug.Stack())))
		}
	}()
	return fn(i)
}
