package selection

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// stepCtx is a deterministic cancellation fixture: it reports itself
// canceled after a fixed number of Err() observations, which the
// sequential training path makes exactly once per (stage, pool member).
// That pins the cancellation point mid-selection without any timing.
type stepCtx struct {
	context.Context
	calls int
	after int
}

func (c *stepCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

func (c *stepCtx) Done() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// TestCancellationStopsEarly proves an in-flight fine selection aborts at
// the next per-model check instead of burning the remaining epochs.
func TestCancellationStopsEarly(t *testing.T) {
	models, m, target, cfg := fixture(t)
	cfg.Workers = 1 // stepCtx counts from one goroutine

	// Uncancelled baseline: count how many checks a full run makes.
	full := &stepCtx{Context: context.Background(), after: 1 << 30}
	if _, err := FineSelect(full, models, target, FineSelectOptions{Config: cfg, Matrix: m}); err != nil {
		t.Fatal(err)
	}
	if full.calls < 6 {
		t.Fatalf("fixture too small to observe an early stop (%d checks)", full.calls)
	}

	// Cancel two thirds of the way through the full run's check sequence.
	after := full.calls * 2 / 3
	ctx := &stepCtx{Context: context.Background(), after: after}
	out, err := FineSelect(ctx, models, target, FineSelectOptions{Config: cfg, Matrix: m})
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled selection returned (%+v, %v), want (nil, context.Canceled)", out, err)
	}
	// The abort must happen at the first failed check: one more
	// observation than the budget, not a full run's worth.
	if ctx.calls != after+1 {
		t.Fatalf("selection made %d context checks after cancellation at %d (full run: %d)",
			ctx.calls, after, full.calls)
	}
}

// TestPreCanceledContext: every selection procedure refuses to train at
// all under an already-dead context.
func TestPreCanceledContext(t *testing.T) {
	models, m, target, cfg := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if out, err := FineSelect(ctx, models, target, FineSelectOptions{Config: cfg, Matrix: m}); out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("FineSelect: (%+v, %v)", out, err)
	}
	if out, err := SuccessiveHalving(ctx, models, target, cfg); out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("SuccessiveHalving: (%+v, %v)", out, err)
	}
	if out, err := BruteForce(ctx, models, target, cfg); out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("BruteForce: (%+v, %v)", out, err)
	}
	if out, err := EnsembleSelect(ctx, models, target, FineSelectOptions{Config: cfg, Matrix: m}, 3); out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("EnsembleSelect: (%+v, %v)", out, err)
	}

	// The parallel path must also abort (its feeder selects on Done).
	par := cfg
	par.Workers = 4
	if out, err := BruteForce(ctx, models, target, par); out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel BruteForce: (%+v, %v)", out, err)
	}
}

// TestUncancelledGolden is the bit-identity guarantee of the context
// refactor: threading a live context through a selection changes nothing
// about its outcome — winners, accuracies, stages and ledgers are deeply
// equal to a context.Background() run.
func TestUncancelledGolden(t *testing.T) {
	models, m, target, cfg := fixture(t)
	opts := FineSelectOptions{Config: cfg, Matrix: m}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	a, err := FineSelect(context.Background(), models, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FineSelect(ctx, models, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("live-context outcome differs from Background:\n%+v\nvs\n%+v", a, b)
	}

	sa, err := SuccessiveHalving(context.Background(), models, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := SuccessiveHalving(ctx, models, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("SH live-context outcome differs:\n%+v\nvs\n%+v", sa, sb)
	}

	ea, err := EnsembleSelect(context.Background(), models, target, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := EnsembleSelect(ctx, models, target, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("ensemble live-context outcome differs:\n%+v\nvs\n%+v", ea, eb)
	}
}
