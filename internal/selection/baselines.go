// Package selection implements the fine-selection phase (§IV) and its
// baselines: brute-force search, successive halving, convergence-trend
// mining over the offline matrix (Eq. 5/6), and the paper's fine-selection
// refinement (Algorithm 1).
//
// All procedures account their cost in training epochs through a
// trainer.Ledger and select strictly on validation accuracy; held-out test
// accuracy is only read to *report* the quality of the finished choice.
package selection

import (
	"context"
	"fmt"
	"time"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/trainer"
)

// Config fixes the training setup shared by all selection procedures.
type Config struct {
	// HP is the fine-tuning hyperparameter set (epoch budget included).
	HP trainer.Hyperparams
	// Seed is the world seed for run streams.
	Seed uint64
	// Salt separates selection procedures that would otherwise share
	// run streams (e.g. SH vs FS over the same models).
	Salt string
	// StageEpochs is Algorithm 1's validation interval s: how many
	// epochs each surviving model trains between filtering decisions.
	// 0 means 1, the paper's evaluation setting.
	StageEpochs int
	// Workers bounds how many surviving candidates train concurrently
	// within one stage — per-round training is embarrassingly parallel
	// because every run owns its RNG stream. 0 or 1 trains sequentially
	// (the historical behaviour); negative uses one worker per CPU.
	// Outcomes are bit-identical across settings: stage results merge in
	// fixed pool order and the ledger is charged per stage, not per
	// goroutine.
	Workers int
	// MaxEpochs, when non-nil, caps the training epochs this selection
	// may charge: a stage whose full-pool cost would push the ledger past
	// the cap is not started, and the outcome reports Truncated with the
	// best-so-far winner instead of an error. 0 is a real budget (no
	// training at all — the winner falls out of the untrained heads,
	// deterministically); nil runs the full stage plan. Truncation
	// happens only at stage boundaries, so a fixed cap yields a
	// bit-identical outcome on every serving path.
	MaxEpochs *int
	// Deadline, when nonzero, is the wall-clock anytime bound: a stage
	// that would start at or after it is skipped and the outcome reports
	// Truncated. Unlike context cancellation this is not an error — the
	// caller still gets the best-so-far winner. The check happens at
	// stage boundaries, so a selection may overrun the deadline by up to
	// one stage (pool size × stage epochs).
	Deadline time.Time
}

// stageEpochs returns the effective validation interval.
func (c Config) stageEpochs() int {
	if c.StageEpochs <= 0 {
		return 1
	}
	return c.StageEpochs
}

// stagePlan splits the total epoch budget into stages of s epochs (the
// last stage absorbs the remainder).
func (c Config) stagePlan() []int {
	s := c.stageEpochs()
	var plan []int
	for remaining := c.HP.Epochs; remaining > 0; remaining -= s {
		if remaining < s {
			plan = append(plan, remaining)
			break
		}
		plan = append(plan, s)
	}
	return plan
}

// Outcome reports a finished selection.
type Outcome struct {
	// Winner is the selected model's name.
	Winner string
	// WinnerVal is the winner's final validation accuracy.
	WinnerVal float64
	// WinnerTest is the winner's held-out test accuracy after full
	// training (the number the paper's Fig. 7 / Table VI report).
	WinnerTest float64
	// Ledger is the accumulated epoch cost.
	Ledger trainer.Ledger
	// Stages records the model names still in play at the start of each
	// training stage (diagnostics; stage 0 is the initial pool).
	Stages [][]string
	// Truncated reports that the selection stopped before its full stage
	// plan because the config's budget (MaxEpochs or Deadline) ran out;
	// Winner is then the best-so-far survivor, not the full procedure's.
	Truncated bool
	// TruncatedBy names the exhausted budget dimension
	// (TruncatedByEpochs or TruncatedByDeadline); empty when not
	// truncated.
	TruncatedBy string
}

func newRuns(models []*modelhub.Model, d *datahub.Dataset, cfg Config) (map[string]*trainer.Run, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("selection: empty model pool")
	}
	runs := make(map[string]*trainer.Run, len(models))
	for _, m := range models {
		if _, dup := runs[m.Name]; dup {
			return nil, fmt.Errorf("selection: duplicate model %q", m.Name)
		}
		run, err := trainer.NewRun(m, d, cfg.HP, cfg.Seed, cfg.Salt)
		if err != nil {
			return nil, err
		}
		runs[m.Name] = run
	}
	return runs, nil
}

// BruteForce fine-tunes every model for the full epoch budget and selects
// the best final validation accuracy. Cost: |M| * Epochs. A canceled
// context aborts mid-pool with ctx.Err(). Training proceeds one full-pool
// epoch pass at a time so a budget can stop it between passes — every run
// owns its RNG stream, so the per-epoch interleaving is bit-identical to
// the historical train-each-model-to-completion order.
func BruteForce(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, cfg Config) (*Outcome, error) {
	runs, err := newRuns(models, d, cfg)
	if err != nil {
		return nil, err
	}
	pool := names(models)
	out := &Outcome{Stages: [][]string{pool}}
	for e := 0; e < cfg.HP.Epochs; e++ {
		if by, stop := cfg.budgetStop(out.Ledger.TrainEpochs(), len(pool)); stop {
			out.truncate(by)
			break
		}
		if _, err := trainStage(ctx, runs, pool, 1, cfg.workers(), &out.Ledger); err != nil {
			return nil, err
		}
	}
	return finish(out, pool, runs)
}

// SuccessiveHalving trains every surviving model one epoch per stage and
// keeps the top half by validation accuracy (Jamieson & Talwalkar 2016,
// the paper's SH baseline). Ties keep the earlier model in pool order so
// results are deterministic. A canceled context aborts between stages or
// pool members with ctx.Err().
func SuccessiveHalving(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, cfg Config) (*Outcome, error) {
	runs, err := newRuns(models, d, cfg)
	if err != nil {
		return nil, err
	}
	pool := names(models)
	out := &Outcome{}
	for _, stageLen := range cfg.stagePlan() {
		if by, stop := cfg.budgetStop(out.Ledger.TrainEpochs(), len(pool)*stageLen); stop {
			out.truncate(by)
			break
		}
		out.Stages = append(out.Stages, append([]string(nil), pool...))
		vals, err := trainStage(ctx, runs, pool, stageLen, cfg.workers(), &out.Ledger)
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
			pool = sortByOriginal(next, names(models))
		}
	}
	return finish(out, pool, runs)
}

// finish picks the best-validation survivor and fills the outcome. Only
// the winner's run is asked for test accuracy, so only the winner pays for
// (and keeps cached) an extraction of the target's test split.
func finish(out *Outcome, pool []string, runs map[string]*trainer.Run) (*Outcome, error) {
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

func names(models []*modelhub.Model) []string {
	out := make([]string, len(models))
	for i, m := range models {
		out[i] = m.Name
	}
	return out
}

// sortByOriginal reorders subset to the order its elements appear in ref.
func sortByOriginal(subset, ref []string) []string {
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
