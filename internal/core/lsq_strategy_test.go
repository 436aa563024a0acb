package core_test

// Semantics of the zero-epoch lsq strategy and the lsq pre-filter, pinned
// at the SelectWith layer: budgets never truncate lsq, a disabled
// pre-filter is byte-identical to no pre-filter, and both are
// bit-reproducible across worker counts.

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"twophase/internal/core"
	"twophase/internal/datahub"
)

func buildLSQTest(t *testing.T, workers int) *core.Framework {
	t.Helper()
	fw, err := core.Build(core.Options{
		Task: datahub.TaskNLP, Seed: 7, Sizes: goldenSizes,
		Workers: workers, BuildWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// TestLSQZeroBudgetNeverTruncates: lsq never trains, so an explicit
// max_epochs of 0 — a real zero budget that truncates every epoch-trained
// strategy — returns truncated=false, zero train epochs, and a nonzero
// ledger (the proxy-inference cost of scoring the repository).
func TestLSQZeroBudgetNeverTruncates(t *testing.T) {
	fw := buildLSQTest(t, 0)
	target := fw.Catalog.Targets()[0]
	zero := 0
	report, err := fw.SelectWith(context.Background(), target, core.SelectOptions{
		Strategy: core.StrategyLSQ, MaxEpochs: &zero,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Truncated || report.TruncatedBy != "" {
		t.Fatalf("zero-budget lsq reported truncated=%v by %q, want untruncated", report.Truncated, report.TruncatedBy)
	}
	if got := report.Ledger.TrainEpochs(); got != 0 {
		t.Fatalf("lsq charged %d training epochs, want 0", got)
	}
	if want := 0.5 * float64(fw.Repo.Len()); report.Ledger.Total() != want {
		t.Fatalf("lsq ledger total %v, want %v (0.5 per repository model)", report.Ledger.Total(), want)
	}
	if report.Outcome.Winner == "" || report.Outcome.WinnerVal <= 0 {
		t.Fatalf("lsq outcome %+v lacks a winner", report.Outcome)
	}
	if len(report.Outcome.Stages) != 1 || len(report.Outcome.Stages[0]) != fw.Repo.Len() {
		t.Fatalf("lsq stages %v, want one stage listing the whole pool", report.Outcome.Stages)
	}
}

// TestLSQBitIdenticalAcrossWorkers pins the acceptance criterion that lsq
// reports are bit-identical across Workers/BuildWorkers in {1, 4}, whether
// the width the report trains at is the one the framework was built with
// or not.
func TestLSQBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full frameworks")
	}
	render := func(fw *core.Framework, workers int) string {
		t.Helper()
		served := *fw // the framework's immutable, so a copy serves at another width
		served.Workers = workers
		target := served.Catalog.Targets()[0]
		report, err := served.SelectWith(context.Background(), target, core.SelectOptions{Strategy: core.StrategyLSQ})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(renderGolden(report))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	fw1 := buildLSQTest(t, 1)
	fw4 := buildLSQTest(t, 4)
	base := render(fw1, 1)
	for _, got := range []string{render(fw4, 4), render(fw1, 4), render(fw4, 1)} {
		if got != base {
			t.Fatalf("lsq report diverged across worker counts:\n base: %s\n got:  %s", base, got)
		}
	}
}

// TestPrefilterDisabledIsByteIdentical: for every epoch-trained strategy,
// prefilter_top_k=0 leaves the report byte-for-byte what it is without the
// option, and a k that cannot drop anyone (|pool|, |pool|+7) leaves recall
// and Outcome — winner, stages, members, accuracies, training ledger —
// identical while the report ledger grows by exactly the lsq pass: 0.5 per
// model of the pool it ranked (the recalled set for two-phase and
// ensemble, the repository for sh and bf).
func TestPrefilterDisabledIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full frameworks")
	}
	fw := buildLSQTest(t, 0)
	target := fw.Catalog.Targets()[0]
	for _, strat := range []core.Strategy{core.StrategyTwoPhase, core.StrategySH, core.StrategyBF, core.StrategyEnsemble} {
		plain, err := fw.SelectWith(context.Background(), target, core.SelectOptions{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		pool := len(plain.Outcome.Stages[0])
		want := fw.Repo.Len()
		if plain.Recall != nil {
			want = len(plain.Recall.Recalled)
		}
		if pool != want {
			t.Fatalf("%s: stage 0 holds %d models, want the pool's %d", strat, pool, want)
		}
		pb, _ := json.Marshal(renderGolden(plain))
		for _, k := range []int{0, pool, pool + 7} {
			got, err := fw.SelectWith(context.Background(), target, core.SelectOptions{Strategy: strat, PrefilterTopK: k})
			if err != nil {
				t.Fatal(err)
			}
			if k == 0 {
				if gb, _ := json.Marshal(renderGolden(got)); string(pb) != string(gb) {
					t.Fatalf("%s: prefilter_top_k=0 changed the report\n plain: %s\n zeroed: %s", strat, pb, gb)
				}
				continue
			}
			if !reflect.DeepEqual(got.Outcome, plain.Outcome) || !reflect.DeepEqual(got.Recall, plain.Recall) ||
				!reflect.DeepEqual(got.Members, plain.Members) {
				t.Fatalf("%s: prefilter_top_k=%d over a pool of %d changed the selection\n plain: %+v\n got:   %+v",
					strat, k, pool, plain.Outcome, got.Outcome)
			}
			if got.Ledger.TrainEpochs() != plain.Ledger.TrainEpochs() ||
				got.TotalEpochs()-plain.TotalEpochs() != 0.5*float64(pool) {
				t.Fatalf("%s: prefilter_top_k=%d ledger %s, want %s plus an lsq pass over %d models",
					strat, k, got.Ledger.String(), plain.Ledger.String(), pool)
			}
		}
	}
}

// TestPrefilterBoundsPool: a positive prefilter_top_k caps the pool the
// epoch strategies train (stage 0 of the outcome), keeps original pool
// order, and charges the lsq pass to the ledger.
func TestPrefilterBoundsPool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full frameworks")
	}
	fw := buildLSQTest(t, 0)
	target := fw.Catalog.Targets()[0]
	const k = 4

	plain, err := fw.SelectWith(context.Background(), target, core.SelectOptions{Strategy: core.StrategySH})
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := fw.SelectWith(context.Background(), target, core.SelectOptions{Strategy: core.StrategySH, PrefilterTopK: k})
	if err != nil {
		t.Fatal(err)
	}
	pool := filtered.Outcome.Stages[0]
	if len(pool) != k {
		t.Fatalf("prefiltered SH pool has %d models, want %d", len(pool), k)
	}
	// Survivors must appear in the same relative order as the full pool.
	pos := map[string]int{}
	for i, name := range plain.Outcome.Stages[0] {
		pos[name] = i
	}
	last := -1
	for _, name := range pool {
		p, ok := pos[name]
		if !ok {
			t.Fatalf("prefiltered pool member %q not in the repository pool", name)
		}
		if p <= last {
			t.Fatalf("prefiltered pool %v not in original pool order", pool)
		}
		last = p
	}
	// The lsq pass charges 0.5 per repository model on top of SH's spend
	// over the reduced pool.
	lsqCost := 0.5 * float64(fw.Repo.Len())
	if got := filtered.Ledger.Total() - filtered.Outcome.Ledger.Total(); math.Abs(got-lsqCost) > 1e-12 {
		t.Fatalf("prefilter charged %v, want %v", got, lsqCost)
	}
	if filtered.Ledger.Total() >= plain.Ledger.Total() {
		t.Fatalf("prefiltered SH cost %v did not undercut plain SH %v", filtered.Ledger.Total(), plain.Ledger.Total())
	}
}

// TestPrefilterKeepsTwoPhaseWinner: pruning the recalled pool to the lsq
// ranking's top 4 — narrow enough that the filter really prunes, wide
// enough that fine selection still has a field — picks the unfiltered
// two-phase winner on at least 3 of this world's 4 targets. Deterministic
// at fixed seed and sizes, so the floor is a count, not a tolerance.
func TestPrefilterKeepsTwoPhaseWinner(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full frameworks")
	}
	fw := buildLSQTest(t, 0)
	targets := fw.Catalog.Targets()
	agree := 0
	for _, d := range targets {
		plain, err := fw.SelectWith(context.Background(), d, core.SelectOptions{Strategy: core.StrategyTwoPhase})
		if err != nil {
			t.Fatal(err)
		}
		filtered, err := fw.SelectWith(context.Background(), d, core.SelectOptions{Strategy: core.StrategyTwoPhase, PrefilterTopK: 4})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Outcome.Winner == filtered.Outcome.Winner {
			agree++
		} else {
			t.Logf("%s: plain picks %s, top-4 pre-filter picks %s", d.Name, plain.Outcome.Winner, filtered.Outcome.Winner)
		}
	}
	if len(targets) != 4 || agree < 3 {
		t.Fatalf("top-4 pre-filter kept the two-phase winner on %d of %d targets, want at least 3 of 4", agree, len(targets))
	}
}

// TestPrefilterIgnoredByLSQ: composing the pre-filter with the lsq
// strategy itself is a no-op, not a double charge.
func TestPrefilterIgnoredByLSQ(t *testing.T) {
	fw := buildLSQTest(t, 0)
	target := fw.Catalog.Targets()[0]
	plain, err := fw.SelectWith(context.Background(), target, core.SelectOptions{Strategy: core.StrategyLSQ})
	if err != nil {
		t.Fatal(err)
	}
	composed, err := fw.SelectWith(context.Background(), target, core.SelectOptions{Strategy: core.StrategyLSQ, PrefilterTopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := json.Marshal(renderGolden(plain))
	cb, _ := json.Marshal(renderGolden(composed))
	if string(pb) != string(cb) {
		t.Fatalf("prefilter_top_k changed the lsq strategy's report")
	}
}
