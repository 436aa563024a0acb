package selection

// Differential oracle for the one-loop replace: test-local copies of the
// four hand-written loops the staged search replaced (FineSelect,
// EnsembleSelect, SuccessiveHalving, BruteForce as they stood before it),
// kept verbatim apart from their names, the slice-of-runs trainStage shim,
// the trend filter's on/off switch as a parameter, and successive
// halving's tie rule, which now is the backstop's: of validation-tied
// members the earlier in pool order goes. The new entry points must
// reproduce their outcomes field for field.

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/perfmatrix"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

func oldRuns(models []*modelhub.Model, d *datahub.Dataset, cfg Config) (map[string]*trainer.Run, []string, error) {
	runs, err := newRuns(models, d, cfg)
	if err != nil {
		return nil, nil, err
	}
	byName := make(map[string]*trainer.Run, len(runs))
	for _, run := range runs {
		byName[run.Model.Name] = run
	}
	return byName, names(runs), nil
}

func oldTrainStage(ctx context.Context, runs map[string]*trainer.Run, pool []string, workers int, ledger *trainer.Ledger) ([]float64, error) {
	members := make([]*trainer.Run, len(pool))
	for i, name := range pool {
		members[i] = runs[name]
	}
	return trainStage(ctx, members, workers, ledger)
}

func oldRemaining(mask []bool) int {
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	return n
}

func oldFinish(out *Outcome, pool []string, runs map[string]*trainer.Run) (*Outcome, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("selection: no survivors")
	}
	bestVal := -1.0
	for _, name := range pool {
		if v := runs[name].FinalVal(); v > bestVal {
			bestVal = v
			out.Winner = name
			out.WinnerVal = v
		}
	}
	out.WinnerTest = runs[out.Winner].TestAccuracy()
	return out, nil
}

func oldSortByOriginal(subset, ref []string) []string {
	pos := make(map[string]int, len(ref))
	for i, n := range ref {
		pos[n] = i
	}
	out := append([]string(nil), subset...)
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if pos[out[j]] < pos[out[i]] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func oldBruteForce(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, cfg Config) (*Outcome, error) {
	runs, pool, err := oldRuns(models, d, cfg)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Stages: [][]string{pool}}
	for e := 0; e < cfg.HP.Epochs; e++ {
		if by, stop := cfg.budgetStop(out.Ledger.TrainEpochs(), len(pool)); stop {
			out.Truncated, out.TruncatedBy = true, by
			break
		}
		if _, err := oldTrainStage(ctx, runs, pool, cfg.Workers, &out.Ledger); err != nil {
			return nil, err
		}
	}
	return oldFinish(out, pool, runs)
}

func oldSuccessiveHalving(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, cfg Config) (*Outcome, error) {
	runs, all, err := oldRuns(models, d, cfg)
	if err != nil {
		return nil, err
	}
	pool := all
	out := &Outcome{}
	for e := 0; e < cfg.HP.Epochs; e++ {
		if by, stop := cfg.budgetStop(out.Ledger.TrainEpochs(), len(pool)); stop {
			out.Truncated, out.TruncatedBy = true, by
			break
		}
		out.Stages = append(out.Stages, append([]string(nil), pool...))
		vals, err := oldTrainStage(ctx, runs, pool, cfg.Workers, &out.Ledger)
		if err != nil {
			return nil, err
		}
		if len(pool) > 1 {
			keep := len(pool) / 2
			if keep < 1 {
				keep = 1
			}
			order := numeric.ArgSortAsc(vals)
			next := make([]string, 0, keep)
			for _, i := range order[len(pool)-keep:] {
				next = append(next, pool[i])
			}
			pool = oldSortByOriginal(next, all)
		}
	}
	return oldFinish(out, pool, runs)
}

// oldStagedFilter is the loop body FineSelect (k = 1) and EnsembleSelect
// each carried a copy of; the two copies differed only in k. With filter
// false only the halving backstop prunes.
func oldStagedFilter(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, opts FineSelectOptions, k int, filter bool) (*Outcome, []string, map[string]*trainer.Run, error) {
	runs, pool, err := oldRuns(models, d, opts.Config)
	if err != nil {
		return nil, nil, nil, err
	}
	out := &Outcome{}
	for stage := 0; stage < opts.HP.Epochs; stage++ {
		if by, stop := opts.budgetStop(out.Ledger.TrainEpochs(), len(pool)); stop {
			out.Truncated, out.TruncatedBy = true, by
			break
		}
		out.Stages = append(out.Stages, append([]string(nil), pool...))
		vals, err := oldTrainStage(ctx, runs, pool, opts.Workers, &out.Ledger)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(pool) <= k {
			continue
		}

		keepMask := make([]bool, len(pool))
		for i := range keepMask {
			keepMask[i] = true
		}
		if filter {
			preds := make([]float64, len(pool))
			for i, name := range pool {
				p, err := predictFinal(opts.Matrix, name, stage, vals[i])
				if err != nil {
					return nil, nil, nil, err
				}
				preds[i] = p
			}
			oldTrendFilter(keepMask, vals, preds, opts.Threshold, k)
		}
		oldBackstop(keepMask, vals, k)
		next := pool[:0:0]
		for i, keep := range keepMask {
			if keep {
				next = append(next, pool[i])
			}
		}
		pool = next
	}
	return out, pool, runs, nil
}

// oldTrendFilter is the old loop's trend filter over a keep mask.
func oldTrendFilter(keepMask []bool, vals, preds []float64, threshold float64, k int) {
	order := numeric.ArgSortAsc(vals)
	for oi, i := range order {
		dominated := false
		for _, j := range order[oi+1:] {
			if !keepMask[j] || vals[j] <= vals[i] {
				continue
			}
			margin := threshold * preds[i]
			if preds[j]-preds[i] > margin {
				dominated = true
				break
			}
		}
		if dominated && oldRemaining(keepMask) > k {
			keepMask[i] = false
		}
	}
}

// oldBackstop is the old loop's halving backstop over a keep mask.
func oldBackstop(keepMask []bool, vals []float64, k int) {
	limit := len(keepMask) / 2
	if limit < k {
		limit = k
	}
	if oldRemaining(keepMask) > limit {
		order := numeric.ArgSortAsc(vals)
		for _, i := range order {
			if oldRemaining(keepMask) <= limit {
				break
			}
			if keepMask[i] {
				keepMask[i] = false
			}
		}
	}
}

func oldFineSelect(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, opts FineSelectOptions) (*Outcome, error) {
	out, pool, runs, err := oldStagedFilter(ctx, models, d, opts, 1, true)
	if err != nil {
		return nil, err
	}
	return oldFinish(out, pool, runs)
}

// oldEnsembleSelect ends the way EnsembleSelect did and folds its
// EnsembleOutcome into an Outcome the way core.SelectWith did (Winner =
// Members[0], WinnerVal/WinnerTest = the ensemble's accuracies).
func oldEnsembleSelect(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, opts FineSelectOptions, k int) (*Outcome, error) {
	out, pool, runs, err := oldStagedFilter(ctx, models, d, opts, k, true)
	if err != nil {
		return nil, err
	}
	finalVals := make([]float64, len(pool))
	for i, name := range pool {
		finalVals[i] = runs[name].FinalVal()
	}
	order := numeric.ArgSortDesc(finalVals)
	if len(order) > k {
		order = order[:k]
	}
	for _, i := range order {
		out.Members = append(out.Members, pool[i])
	}
	memberRuns := make([]*trainer.Run, len(out.Members))
	for i, name := range out.Members {
		memberRuns[i] = runs[name]
		if t := runs[name].TestAccuracy(); t > out.BestMemberTest {
			out.BestMemberTest = t
		}
	}
	out.Winner = out.Members[0]
	out.WinnerVal = votingAccuracy(memberRuns, d.Val.Y, (*trainer.Run).ValProbs)
	out.WinnerTest = votingAccuracy(memberRuns, d.Test.Y, (*trainer.Run).TestProbs)
	return out, nil
}

// strategyCase is one epoch-trained entry point beside the old loop it
// must reproduce; the budget property test walks the same table.
type strategyCase struct {
	name     string
	run, old func(context.Context, []*modelhub.Model, *datahub.Dataset, FineSelectOptions) (*Outcome, error)
}

func strategyCases() []strategyCase {
	cases := []strategyCase{
		{"bf",
			func(ctx context.Context, ms []*modelhub.Model, d *datahub.Dataset, o FineSelectOptions) (*Outcome, error) {
				return BruteForce(ctx, ms, d, o.Config)
			},
			func(ctx context.Context, ms []*modelhub.Model, d *datahub.Dataset, o FineSelectOptions) (*Outcome, error) {
				return oldBruteForce(ctx, ms, d, o.Config)
			}},
		{"sh",
			func(ctx context.Context, ms []*modelhub.Model, d *datahub.Dataset, o FineSelectOptions) (*Outcome, error) {
				return SuccessiveHalving(ctx, ms, d, o.Config)
			},
			func(ctx context.Context, ms []*modelhub.Model, d *datahub.Dataset, o FineSelectOptions) (*Outcome, error) {
				return oldSuccessiveHalving(ctx, ms, d, o.Config)
			}},
		{"fs", FineSelect, oldFineSelect},
	}
	for k := 1; k <= 3; k++ {
		cases = append(cases, strategyCase{fmt.Sprintf("ensemble-k%d", k),
			func(ctx context.Context, ms []*modelhub.Model, d *datahub.Dataset, o FineSelectOptions) (*Outcome, error) {
				return EnsembleSelect(ctx, ms, d, o, k)
			},
			func(ctx context.Context, ms []*modelhub.Model, d *datahub.Dataset, o FineSelectOptions) (*Outcome, error) {
				return oldEnsembleSelect(ctx, ms, d, o, k)
			}})
	}
	return cases
}

// worldFixture is a task family's whole repository (the pool core's sh
// strategy halves), the offline matrix over it and the family's first
// target, at golden sizes.
func worldFixture(t *testing.T, task string, seed uint64) ([]*modelhub.Model, *perfmatrix.Matrix, *datahub.Dataset, Config) {
	t.Helper()
	w := synth.NewWorld(seed)
	cat, err := datahub.NewTaskCatalog(w, task, datahub.Sizes{Train: 60, Val: 40, Test: 48})
	if err != nil {
		t.Fatal(err)
	}
	repo, err := modelhub.NewTaskRepository(w, task)
	if err != nil {
		t.Fatal(err)
	}
	hp := trainer.Default(task)
	m, err := perfmatrix.Build(repo, cat.Benchmarks(), hp, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return repo.Models(), m, cat.Targets()[0], Config{HP: hp, Seed: seed, Salt: "oracle"}
}

// TestSearchMatchesReplacedLoops: over both task families × seeds {0, 7}
// × workers {1, 4}, each entry point returns an outcome deeply equal to
// its replaced loop's — winner, accuracies, ledger, stages, members,
// truncation — on two pools: the first six models at every epoch cap from
// 0 to the unbudgeted cost (and no cap), and the whole repository, where
// validation ties reach the halving cuts, unbudgeted.
func TestSearchMatchesReplacedLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid builds four offline matrices")
	}
	ctx := context.Background()
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		for _, seed := range []uint64{0, 7} {
			all, matrix, target, cfg := worldFixture(t, task, seed)
			for _, c := range strategyCases() {
				for _, workers := range []int{1, 4} {
					opts := FineSelectOptions{Config: cfg, Matrix: matrix}
					opts.Workers = workers
					for _, models := range [][]*modelhub.Model{all[:6], all} {
						full, err := c.old(ctx, models, target, opts)
						if err != nil {
							t.Fatal(err)
						}
						// The whole repository runs unbudgeted only: its
						// cap sweep takes minutes under -race.
						last := full.Ledger.TrainEpochs()
						if len(models) == len(all) {
							last = -1
						}
						capped := opts
						for cap := -1; cap <= last; cap++ {
							if cap >= 0 {
								capped.MaxEpochs = intPtr(cap)
							}
							want, err := c.old(ctx, models, target, capped)
							if err != nil {
								t.Fatal(err)
							}
							got, err := c.run(ctx, models, target, capped)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s/%d %s %d models workers=%d cap=%d:\n got %+v\nwant %+v",
									task, seed, c.name, len(models), workers, cap, got, want)
							}
						}
					}
				}
			}
			// The old loop with its trend filter off left the backstop
			// alone, and that is successive halving, over the whole
			// repository too.
			out, pool, runs, err := oldStagedFilter(ctx, all, target, FineSelectOptions{Config: cfg}, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oldFinish(out, pool, runs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SuccessiveHalving(ctx, all, target, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d filter-less fs vs sh:\n got %+v\nwant %+v", task, seed, got, want)
			}
		}
	}
}

// TestFineSelectAtInfiniteThresholdIsSH: a threshold of +Inf lets no
// prediction gap beat it (Inf·p is +Inf, or NaN at p = 0), so Algorithm
// 1's prune is its halving backstop alone, and that is successive halving:
// over both task families × seeds {0, 7} × workers {1, 4} × every epoch
// cap (and no cap) the outcomes are deeply equal — winner, accuracies,
// ledger, every stage's pool, truncation.
func TestFineSelectAtInfiniteThresholdIsSH(t *testing.T) {
	ctx := context.Background()
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		for _, seed := range []uint64{0, 7} {
			models, matrix, target, cfg := worldFixture(t, task, seed)
			for _, workers := range []int{1, 4} {
				opts := FineSelectOptions{Config: cfg, Matrix: matrix, Threshold: math.Inf(1)}
				opts.Workers = workers
				full, err := SuccessiveHalving(ctx, models, target, opts.Config)
				if err != nil {
					t.Fatal(err)
				}
				for cap := -1; cap <= full.Ledger.TrainEpochs(); cap++ {
					if cap >= 0 {
						opts.MaxEpochs = intPtr(cap)
					}
					sh, err := SuccessiveHalving(ctx, models, target, opts.Config)
					if err != nil {
						t.Fatal(err)
					}
					fs, err := FineSelect(ctx, models, target, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(fs, sh) {
						t.Fatalf("%s/%d workers=%d cap=%d:\n fs %+v\n sh %+v", task, seed, workers, cap, fs, sh)
					}
				}
			}
		}
	}
}

// TestPruneIsFilterThenHalve: on seeded random stages with heavy
// validation ties and random predictions, Algorithm 1's prune step — the
// trend filter, then halve over what it kept — drops exactly what halve
// drops over the replaced loop's trend-filter mask, and exactly what the
// replaced loop's filter and backstop dropped, at every floor k the
// search prunes above.
func TestPruneIsFilterThenHalve(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	for trial := 0; trial < 3000; trial++ {
		n := 2 + rng.IntN(11)
		levels := 1 + rng.IntN(4)
		vals, preds := make([]float64, n), make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.IntN(levels)) / 4
			preds[i] = rng.Float64()
		}
		threshold := []float64{0, 0.05, 0.2, math.Inf(1)}[rng.IntN(4)]
		for k := 1; k <= 3 && k < n; k++ {
			got := halve(trendFilter(vals, preds, threshold, k), vals, k)

			oldMask := make([]bool, n)
			for i := range oldMask {
				oldMask[i] = true
			}
			oldTrendFilter(oldMask, vals, preds, threshold, k)
			filtered := make([]bool, n)
			for i, keep := range oldMask {
				filtered[i] = !keep
			}
			if want := halve(filtered, vals, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("vals %v preds %v threshold %v k=%d: prune drops %v, filter mask then halve %v", vals, preds, threshold, k, got, want)
			}
			oldBackstop(oldMask, vals, k)
			for i, keep := range oldMask {
				if got[i] == keep {
					t.Fatalf("vals %v preds %v threshold %v k=%d: prune drops %v, replaced loop keeps %v", vals, preds, threshold, k, got, oldMask)
				}
			}
		}
	}
}

// TestEnsembleOfOneIsFineSelect: EnsembleSelect(k=1) is FineSelect field
// for field — same winner, accuracies, ledger, stages and truncation — and
// additionally names its one member. (One member's soft vote is that
// member's argmax, so the ensemble accuracies are the member's own.)
func TestEnsembleOfOneIsFineSelect(t *testing.T) {
	ctx := context.Background()
	models, matrix, target, cfg := fixture(t)
	opts := FineSelectOptions{Config: cfg, Matrix: matrix}
	full, err := FineSelect(ctx, models, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	for cap := -1; cap <= full.Ledger.TrainEpochs(); cap++ {
		if cap >= 0 {
			opts.MaxEpochs = intPtr(cap)
		}
		fs, err := FineSelect(ctx, models, target, opts)
		if err != nil {
			t.Fatal(err)
		}
		ens, err := EnsembleSelect(ctx, models, target, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ens.Members, []string{fs.Winner}) || ens.BestMemberTest != fs.WinnerTest {
			t.Fatalf("cap=%d: members %v best %v, want [%s] %v", cap, ens.Members, ens.BestMemberTest, fs.Winner, fs.WinnerTest)
		}
		ens.Members, ens.BestMemberTest = nil, 0
		if len(fs.Stages) == 0 {
			// No epoch ran, so no validation accuracy was recorded:
			// FineSelect reports 0 where the vote scores the
			// untrained head.
			ens.WinnerVal = fs.WinnerVal
		}
		if !reflect.DeepEqual(ens, fs) {
			t.Fatalf("cap=%d:\n ensemble(1) %+v\nfine-select %+v", cap, ens, fs)
		}
	}
}
