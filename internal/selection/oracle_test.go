package selection

// Differential oracle for the one-loop replace: test-local copies of the
// four hand-written loops the staged search replaced (FineSelect,
// EnsembleSelect, SuccessiveHalving, BruteForce as they stood before it),
// kept verbatim apart from their names and the slice-of-runs trainStage
// shim. The new entry points must reproduce their outcomes field for
// field.

import (
	"context"
	"fmt"
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

func oldTrainStage(ctx context.Context, runs map[string]*trainer.Run, pool []string, stageLen, workers int, ledger *trainer.Ledger) ([]float64, error) {
	members := make([]*trainer.Run, len(pool))
	for i, name := range pool {
		members[i] = runs[name]
	}
	return trainStage(ctx, members, stageLen, workers, ledger)
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
		if _, err := oldTrainStage(ctx, runs, pool, 1, cfg.Workers, &out.Ledger); err != nil {
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
	for _, stageLen := range cfg.stagePlan() {
		if by, stop := cfg.budgetStop(out.Ledger.TrainEpochs(), len(pool)*stageLen); stop {
			out.Truncated, out.TruncatedBy = true, by
			break
		}
		out.Stages = append(out.Stages, append([]string(nil), pool...))
		vals, err := oldTrainStage(ctx, runs, pool, stageLen, cfg.Workers, &out.Ledger)
		if err != nil {
			return nil, err
		}
		if len(pool) > 1 {
			keep := len(pool) / 2
			if keep < 1 {
				keep = 1
			}
			order := numeric.ArgSortDesc(vals)
			next := make([]string, 0, keep)
			for _, i := range order[:keep] {
				next = append(next, pool[i])
			}
			pool = oldSortByOriginal(next, all)
		}
	}
	return oldFinish(out, pool, runs)
}

// oldStagedFilter is the loop body FineSelect (k = 1) and EnsembleSelect
// each carried a copy of; the two copies differed only in k.
func oldStagedFilter(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, opts FineSelectOptions, k int) (*Outcome, []string, map[string]*trainer.Run, error) {
	runs, pool, err := oldRuns(models, d, opts.Config)
	if err != nil {
		return nil, nil, nil, err
	}
	out := &Outcome{}
	completed := 0
	for _, stageLen := range opts.stagePlan() {
		if by, stop := opts.budgetStop(out.Ledger.TrainEpochs(), len(pool)*stageLen); stop {
			out.Truncated, out.TruncatedBy = true, by
			break
		}
		out.Stages = append(out.Stages, append([]string(nil), pool...))
		vals, err := oldTrainStage(ctx, runs, pool, stageLen, opts.Workers, &out.Ledger)
		if err != nil {
			return nil, nil, nil, err
		}
		completed += stageLen
		stage := completed - 1
		if len(pool) <= k {
			continue
		}

		keepMask := make([]bool, len(pool))
		for i := range keepMask {
			keepMask[i] = true
		}
		if !opts.DisableTrendFilter && opts.Matrix != nil {
			preds := make([]float64, len(pool))
			for i, name := range pool {
				p, err := predictFinal(opts.Matrix, name, stage, vals[i])
				if err != nil {
					return nil, nil, nil, err
				}
				preds[i] = p
			}
			order := numeric.ArgSortAsc(vals)
			for oi, i := range order {
				dominated := false
				for _, j := range order[oi+1:] {
					if !keepMask[j] || vals[j] <= vals[i] {
						continue
					}
					margin := opts.Threshold * preds[i]
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
		limit := len(pool) / 2
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

func oldFineSelect(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, opts FineSelectOptions) (*Outcome, error) {
	out, pool, runs, err := oldStagedFilter(ctx, models, d, opts, 1)
	if err != nil {
		return nil, err
	}
	return oldFinish(out, pool, runs)
}

// oldEnsembleSelect ends the way EnsembleSelect did and folds its
// EnsembleOutcome into an Outcome the way core.SelectWith did (Winner =
// Members[0], WinnerVal/WinnerTest = the ensemble's accuracies).
func oldEnsembleSelect(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, opts FineSelectOptions, k int) (*Outcome, error) {
	out, pool, runs, err := oldStagedFilter(ctx, models, d, opts, k)
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

// stageEpochGrid is the validation intervals the budget grids cover: the
// paper's 1, one that leaves a remainder stage, and one stage for all.
var stageEpochGrid = []int{1, 2, 5}

// worldFixture is a 6-model pool, the offline matrix of its whole task
// family and the family's first target, at golden sizes.
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
	return repo.Models()[:6], m, cat.Targets()[0], Config{HP: hp, Seed: seed, Salt: "oracle"}
}

// TestSearchMatchesReplacedLoops: over both task families × seeds {0, 7} ×
// workers {1, 4} × every validation interval × every epoch cap from 0 to
// the unbudgeted cost (and no cap), each entry point returns an outcome
// deeply equal to its replaced loop's — winner, accuracies, ledger,
// stages, members, truncation.
func TestSearchMatchesReplacedLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid builds four offline matrices")
	}
	ctx := context.Background()
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		for _, seed := range []uint64{0, 7} {
			models, matrix, target, cfg := worldFixture(t, task, seed)
			for _, c := range strategyCases() {
				for _, s := range stageEpochGrid {
					for _, workers := range []int{1, 4} {
						opts := FineSelectOptions{Config: cfg, Matrix: matrix}
						opts.StageEpochs, opts.Workers = s, workers
						full, err := c.old(ctx, models, target, opts)
						if err != nil {
							t.Fatal(err)
						}
						for cap := -1; cap <= full.Ledger.TrainEpochs(); cap++ {
							if cap >= 0 {
								opts.MaxEpochs = intPtr(cap)
							}
							want, err := c.old(ctx, models, target, opts)
							if err != nil {
								t.Fatal(err)
							}
							got, err := c.run(ctx, models, target, opts)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s/%d %s s=%d workers=%d cap=%d:\n got %+v\nwant %+v",
									task, seed, c.name, s, workers, cap, got, want)
							}
						}
					}
				}
			}
			// The trend filter off leaves the backstop alone; that path
			// must be the old one too.
			opts := FineSelectOptions{Config: cfg, DisableTrendFilter: true, Matrix: matrix}
			want, err := oldFineSelect(ctx, models, target, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FineSelect(ctx, models, target, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%d filter-less fs:\n got %+v\nwant %+v", task, seed, got, want)
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
	for _, s := range stageEpochGrid {
		opts := FineSelectOptions{Config: cfg, Matrix: matrix}
		opts.StageEpochs = s
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
				t.Fatalf("s=%d cap=%d: members %v best %v, want [%s] %v", s, cap, ens.Members, ens.BestMemberTest, fs.Winner, fs.WinnerTest)
			}
			ens.Members, ens.BestMemberTest = nil, 0
			if len(fs.Stages) == 0 {
				// No epoch ran, so no validation accuracy was recorded:
				// FineSelect reports 0 where the vote scores the
				// untrained head.
				ens.WinnerVal = fs.WinnerVal
			}
			if !reflect.DeepEqual(ens, fs) {
				t.Fatalf("s=%d cap=%d:\n ensemble(1) %+v\nfine-select %+v", s, cap, ens, fs)
			}
		}
	}
}
