package selection

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

func intPtr(v int) *int { return &v }

// TestZeroBudgetTruncatesAllStrategies: MaxEpochs=0 is a real budget — no
// training happens, every procedure reports Truncated, and the winner falls
// deterministically out of the untrained heads.
func TestZeroBudgetTruncatesAllStrategies(t *testing.T) {
	models, matrix, target, cfg := fixture(t)
	cfg.MaxEpochs = intPtr(0)

	type run func() (*Outcome, error)
	cases := map[string]run{
		"bf": func() (*Outcome, error) { return BruteForce(context.Background(), models, target, cfg) },
		"sh": func() (*Outcome, error) { return SuccessiveHalving(context.Background(), models, target, cfg) },
		"fs": func() (*Outcome, error) {
			return FineSelect(context.Background(), models, target, FineSelectOptions{Config: cfg, Matrix: matrix})
		},
	}
	for name, fn := range cases {
		out, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Truncated || out.TruncatedBy != TruncatedByEpochs {
			t.Fatalf("%s: truncated=%v by=%q, want epoch truncation", name, out.Truncated, out.TruncatedBy)
		}
		if got := out.Ledger.TrainEpochs(); got != 0 {
			t.Fatalf("%s: trained %d epochs under a zero budget", name, got)
		}
		if out.Winner == "" {
			t.Fatalf("%s: no best-so-far winner", name)
		}
	}

	ens, err := EnsembleSelect(context.Background(), models, target,
		FineSelectOptions{Config: cfg, Matrix: matrix}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ens.Truncated || ens.TruncatedBy != TruncatedByEpochs {
		t.Fatalf("ensemble: truncated=%v by=%q", ens.Truncated, ens.TruncatedBy)
	}
	if got := ens.Ledger.TrainEpochs(); got != 0 {
		t.Fatalf("ensemble trained %d epochs under a zero budget", got)
	}
	if len(ens.Members) == 0 {
		t.Fatal("ensemble: no best-so-far members")
	}
}

// TestEpochBudgetStopsAtStageBoundary: the cap refuses a stage it cannot
// afford in full, so the spent epochs never exceed the cap and truncation
// lands exactly at a stage boundary.
func TestEpochBudgetStopsAtStageBoundary(t *testing.T) {
	models, _, target, cfg := fixture(t)
	cap := len(models) + 3 // one full first SH stage, not two
	cfg.MaxEpochs = intPtr(cap)

	out, err := SuccessiveHalving(context.Background(), models, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Truncated || out.TruncatedBy != TruncatedByEpochs {
		t.Fatalf("truncated=%v by=%q, want epoch truncation", out.Truncated, out.TruncatedBy)
	}
	if got := out.Ledger.TrainEpochs(); got != len(models) {
		t.Fatalf("spent %d train epochs, want exactly one stage (%d)", got, len(models))
	}
	if got := len(out.Stages); got != 1 {
		t.Fatalf("ran %d stages, want 1", got)
	}
}

// TestEpochBudgetDeterministic: a fixed epoch budget yields a bit-identical
// outcome on repeated runs — the determinism the serving paths rely on.
func TestEpochBudgetDeterministic(t *testing.T) {
	models, matrix, target, cfg := fixture(t)
	cfg.MaxEpochs = intPtr(len(models) + 1)

	run := func(workers int) *Outcome {
		c := cfg
		c.Workers = workers
		out, err := FineSelect(context.Background(), models, target, FineSelectOptions{Config: c, Matrix: matrix})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b, c := run(0), run(0), run(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("budgeted outcome not reproducible:\n%+v\nvs\n%+v", a, b)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("budgeted outcome differs across worker counts:\n%+v\nvs\n%+v", a, c)
	}
	if !a.Truncated {
		t.Fatal("budget did not truncate")
	}
}

// TestBudgetedPrefixMatchesUnbudgeted: for every epoch-trained strategy
// and epoch cap from 0 to the unbudgeted cost, a
// budgeted run retrains the exact same stages as the unbudgeted procedure
// up to its truncation point — anytime means "stop early", never "train
// differently": the recorded stages are a prefix of the unbudgeted run's,
// the ledger stays within the cap, Truncated is set exactly when the cap
// is below the unbudgeted cost, and a cap that is not yields the
// unbudgeted outcome.
//
// The deadline, the one budget the clock decides, is held to the same
// bound: wherever it falls — already past, far in the future, or at eight
// points across the unbudgeted run's wall time — the outcome is the one
// an epoch cap of exactly the epochs it spent gives (TruncatedBy aside),
// so the clock only picks the stage boundary; and a deadline run that was
// not truncated is the unbudgeted outcome.
func TestBudgetedPrefixMatchesUnbudgeted(t *testing.T) {
	models, matrix, target, cfg := fixture(t)
	ctx := context.Background()
	for _, c := range strategyCases() {
		opts := FineSelectOptions{Config: cfg, Matrix: matrix}
		began := time.Now()
		full, err := c.run(ctx, models, target, opts)
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(began)
		cost := full.Ledger.TrainEpochs()
		for cap := 0; cap <= cost; cap++ {
			opts.MaxEpochs = intPtr(cap)
			part, err := c.run(ctx, models, target, opts)
			if err != nil {
				t.Fatal(err)
			}
			at := fmt.Sprintf("%s cap=%d/%d", c.name, cap, cost)
			if len(part.Stages) > len(full.Stages) {
				t.Fatalf("%s: %d stages, the unbudgeted run has %d", at, len(part.Stages), len(full.Stages))
			}
			for i, pool := range part.Stages {
				if !reflect.DeepEqual(pool, full.Stages[i]) {
					t.Fatalf("%s: stage %d pool %v, unbudgeted %v", at, i, pool, full.Stages[i])
				}
			}
			if spent := part.Ledger.TrainEpochs(); spent > cap {
				t.Fatalf("%s: spent %d epochs", at, spent)
			}
			if part.Truncated != (cap < cost) || (part.TruncatedBy == TruncatedByEpochs) != part.Truncated {
				t.Fatalf("%s: truncated=%v by=%q", at, part.Truncated, part.TruncatedBy)
			}
			if cap == cost && !reflect.DeepEqual(part, full) {
				t.Fatalf("%s: a cap the run fits in changed it:\n got %+v\nwant %+v", at, part, full)
			}
		}

		offsets := []time.Duration{-time.Second, time.Hour}
		for k := 1; k <= 8; k++ {
			offsets = append(offsets, wall*time.Duration(k)/9)
		}
		for _, off := range offsets {
			timed := opts
			timed.MaxEpochs = nil
			timed.Deadline = time.Now().Add(off)
			got, err := c.run(ctx, models, target, timed)
			if err != nil {
				t.Fatal(err)
			}
			at := fmt.Sprintf("%s deadline %v of %v", c.name, off, wall)
			if got.Truncated != (got.TruncatedBy == TruncatedByDeadline) {
				t.Fatalf("%s: truncated=%v by=%q", at, got.Truncated, got.TruncatedBy)
			}
			if !got.Truncated && !reflect.DeepEqual(got, full) {
				t.Fatalf("%s: an untruncated run differs from the unbudgeted one:\n got %+v\nwant %+v", at, got, full)
			}
			capped := opts
			capped.MaxEpochs = intPtr(got.Ledger.TrainEpochs())
			want, err := c.run(ctx, models, target, capped)
			if err != nil {
				t.Fatal(err)
			}
			want.TruncatedBy = got.TruncatedBy
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: differs from the run capped at its own %d epochs:\n got %+v\nwant %+v", at, got.Ledger.TrainEpochs(), got, want)
			}
		}
	}
}

// TestDeadlineTruncates: an already-expired deadline truncates before any
// training; the caller still gets a winner, not an error.
func TestDeadlineTruncates(t *testing.T) {
	models, _, target, cfg := fixture(t)
	cfg.Deadline = time.Now().Add(-time.Second)

	out, err := BruteForce(context.Background(), models, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Truncated || out.TruncatedBy != TruncatedByDeadline {
		t.Fatalf("truncated=%v by=%q, want deadline truncation", out.Truncated, out.TruncatedBy)
	}
	if out.Winner == "" {
		t.Fatal("no best-so-far winner")
	}
	if got := out.Ledger.TrainEpochs(); got != 0 {
		t.Fatalf("trained %d epochs past an expired deadline", got)
	}
}

// TestEpochCapWinsOverDeadline: when both dimensions are exhausted the
// deterministic epoch cap must be the reported reason, so identical
// budgeted requests agree across replicas regardless of wall-clock jitter.
func TestEpochCapWinsOverDeadline(t *testing.T) {
	cfg := Config{MaxEpochs: intPtr(0), Deadline: time.Now().Add(-time.Hour)}
	by, stop := cfg.budgetStop(0, 1)
	if !stop || by != TruncatedByEpochs {
		t.Fatalf("budgetStop = %q/%v, want epoch cap first", by, stop)
	}
}

// TestNoBudgetNoTruncation: the zero-value config never truncates.
func TestNoBudgetNoTruncation(t *testing.T) {
	models, _, target, cfg := fixture(t)
	out, err := SuccessiveHalving(context.Background(), models, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Truncated || out.TruncatedBy != "" {
		t.Fatalf("unbudgeted run truncated (%q)", out.TruncatedBy)
	}
}
