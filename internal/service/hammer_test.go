package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"twophase/internal/core"
	"twophase/internal/datahub"
)

// TestDoRaceHammer hammers Service.Do's batch fan-out under the nastiest
// concurrent regime the serving layer supports: a size-1 LRU so every
// other request evicts the other seed's world mid-use, several goroutines
// alternating seeds (constant churn), and one goroutine canceling its
// batch mid-flight. Run under -race in CI; the assertions are that no
// request fails for any reason other than its own cancellation, results
// stay in request order, and successful reports are bit-identical across
// all the churn.
func TestDoRaceHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test (two offline builds + concurrent churn)")
	}
	// The store keeps re-resolving an evicted world cheap (artifact load,
	// not a retrain), so the hammer spends its wall clock on contention —
	// the thing under test — instead of offline fine-tuning.
	s := newTestService(t, Options{Base: core.Options{Workers: 2}, CacheSize: 1, Concurrency: 2, StoreDir: t.TempDir()})
	ctx := context.Background()
	targets := []string{"tweet_eval", "super_glue/boolq", "tweet_eval", "super_glue/multirc"}
	seeds := []uint64{42, 7}

	// Golden reports per (seed, target), served before the churn starts.
	golden := make(map[uint64]map[string]*core.Report, len(seeds))
	for _, seed := range seeds {
		seed := seed
		golden[seed] = make(map[string]*core.Report)
		results, err := s.Do(ctx, Request{Task: datahub.TaskNLP, Targets: targets, Seed: &seed})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("golden %d/%s: %v", seed, r.Target, r.Err)
			}
			golden[seed][targets[i]] = r.Report
		}
	}

	const (
		hammers = 4
		rounds  = 6
	)
	var canceledBatches atomic.Int64
	var wg sync.WaitGroup
	for h := 0; h < hammers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				seed := seeds[(h+round)%len(seeds)] // alternate seeds: size-1 cache churns
				cctx, cancel := context.WithCancel(ctx)
				canceler := h == hammers-1
				var cwg sync.WaitGroup
				if canceler {
					// Cancel mid-batch: after the first target lands, the
					// rest of the batch must drain as canceled, never as
					// wrong answers.
					cwg.Add(1)
					go func() {
						defer cwg.Done()
						cancel()
					}()
				}
				results, err := s.Do(cctx, Request{Task: datahub.TaskNLP, Targets: targets, Seed: &seed})
				cwg.Wait()
				cancel()
				if err != nil {
					// Do only fails request-level when the framework lease
					// itself was cut short — legal only for the canceler.
					if canceler && errors.Is(err, context.Canceled) {
						canceledBatches.Add(1)
						continue
					}
					t.Errorf("hammer %d round %d: %v", h, round, err)
					continue
				}
				if len(results) != len(targets) {
					t.Errorf("hammer %d round %d: %d results", h, round, len(results))
					continue
				}
				sawCancel := false
				for i, r := range results {
					if r.Target != targets[i] {
						t.Errorf("hammer %d round %d: result %d out of order (%s)", h, round, i, r.Target)
					}
					if r.Err != nil {
						if !errors.Is(r.Err, context.Canceled) {
							t.Errorf("hammer %d round %d target %s: non-cancellation failure %v", h, round, r.Target, r.Err)
						} else if !canceler {
							t.Errorf("hammer %d round %d target %s: canceled without a canceler", h, round, r.Target)
						} else {
							sawCancel = true
						}
						continue
					}
					// Every answer that survives the churn is bit-identical
					// to the golden run: eviction and cancellation can slow
					// serving down but never change it.
					want := golden[seed][targets[i]]
					if r.Report.Outcome.Winner != want.Outcome.Winner ||
						r.Report.Outcome.WinnerTest != want.Outcome.WinnerTest ||
						r.Report.TotalEpochs() != want.TotalEpochs() {
						t.Errorf("hammer %d round %d target %s: report drifted under churn", h, round, r.Target)
					}
				}
				if sawCancel {
					canceledBatches.Add(1)
				}
			}
		}(h)
	}
	wg.Wait()

	// The churn must have actually churned: a size-1 cache cycling two
	// seeds has to evict, and the canceler usually lands at least once.
	if st := s.CacheStats(); st.Evictions == 0 {
		t.Fatalf("no evictions under size-1 seed churn: %+v", st)
	}
	// A batch issued on an already-dead context drains every target as
	// canceled (or fails the lease the same way) without touching the
	// cache's health.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	results, err := s.Do(cctx, Request{Task: datahub.TaskNLP, Targets: targets})
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("dead-context batch failed with %v", err)
		}
	} else {
		for _, r := range results {
			if r.Err == nil || !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("dead-context target %s: %v", r.Target, r.Err)
			}
		}
	}
	t.Logf("hammer done: %d batches observed cancellation, cache stats %+v",
		canceledBatches.Load(), s.CacheStats())
}
