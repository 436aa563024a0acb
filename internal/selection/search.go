// Package selection implements the fine-selection phase (§IV) and its
// baselines, plus the convergence-trend mining over the offline matrix
// (Eq. 5/6) that the paper's refinement (Algorithm 1) filters with.
//
// Every epoch-trained procedure is the same staged search (search): each
// pool member gets its own trainer.Run, and then, for every stage of the
// config's stage plan, the search stops if the budget cannot pay the whole
// pool for the stage (an anytime stop: Truncated, best-so-far winner, no
// error), records the pool, trains every member for the stage's epochs and,
// while the pool is above its survivor floor, hands the members' validation
// accuracies to a prune step. A canceled context aborts between members
// with ctx.Err().
//
// Every prune step ends in halve (Jamieson & Talwalkar 2016): walking up
// from the worst validation accuracy it drops members still in play until
// at most max(⌊n/2⌋, floor) of the pool's n remain; of tied members the
// earlier in pool order goes. SuccessiveHalving is the search with halve
// alone and floor 1. FineSelect is the search with Algorithm 1's step
// (FineSelectOptions.prune) and floor 1: the trend filter first drops
// every member that some better-validating member's predicted final
// accuracy beats, then halve runs over what it kept (the halving
// backstop). EnsembleSelect is the same with floor k and a soft vote over
// the survivors, and BruteForce the search with no prune step at
// one-epoch stages.
//
// Cost is accounted in training epochs through a trainer.Ledger and
// selection is strictly on validation accuracy; held-out test accuracy is
// only read to *report* the quality of the finished choice.
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
	// because every run owns its RNG stream. It is fanout's width: 0 (or
	// less) is one per CPU, 1 trains sequentially on the caller's
	// goroutine. Outcomes are bit-identical across settings: stage
	// results merge in fixed pool order and the ledger is charged per
	// stage, not per goroutine.
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

// stagePlan splits the total epoch budget into stages of StageEpochs
// epochs (the last stage takes the remainder).
func (c Config) stagePlan() []int {
	s := max(c.StageEpochs, 1)
	var plan []int
	for left := c.HP.Epochs; left > 0; left -= s {
		plan = append(plan, min(s, left))
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
	// Members are the soft-voted models, best validation first, and
	// BestMemberTest the best member's own test accuracy, for judging the
	// ensemble's lift. Set by EnsembleSelect only: Winner is then
	// Members[0] and WinnerVal/WinnerTest are the ensemble's accuracies.
	Members        []string
	BestMemberTest float64
}

// pruneFunc decides which members of a just-trained pool leave it: vals
// are their validation accuracies in pool order, stage is the 0-based
// index of the last epoch trained (the offline-curve position the
// accuracies correspond to) and floor the fewest members it may keep.
type pruneFunc func(pool []*trainer.Run, vals []float64, stage, floor int) (drop []bool, err error)

// survivors is what a search leaves for its caller to rank.
type survivors struct {
	out  *Outcome
	pool []*trainer.Run
}

// search is the staged search every procedure shares; see the package
// comment. A nil prune never shrinks the pool.
func search(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, cfg Config, floor int, prune pruneFunc) (survivors, error) {
	pool, err := newRuns(models, d, cfg)
	if err != nil {
		return survivors{}, err
	}
	out := &Outcome{}
	epochs := 0
	for _, stageLen := range cfg.stagePlan() {
		if by, stop := cfg.budgetStop(out.Ledger.TrainEpochs(), len(pool)*stageLen); stop {
			// The pool and ledger stay as the last completed stage left
			// them: partial work is kept, never rolled back.
			out.Truncated, out.TruncatedBy = true, by
			break
		}
		out.Stages = append(out.Stages, names(pool))
		vals, err := trainStage(ctx, pool, stageLen, cfg.Workers, &out.Ledger)
		if err != nil {
			return survivors{}, err
		}
		epochs += stageLen
		if prune == nil || len(pool) <= floor {
			continue
		}
		drop, err := prune(pool, vals, epochs-1, floor)
		if err != nil {
			return survivors{}, err
		}
		next := pool[:0]
		for i, run := range pool {
			if !drop[i] {
				next = append(next, run)
			}
		}
		pool = next
	}
	return survivors{out, pool}, nil
}

func newRuns(models []*modelhub.Model, d *datahub.Dataset, cfg Config) ([]*trainer.Run, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("selection: empty model pool")
	}
	seen := make(map[string]bool, len(models))
	runs := make([]*trainer.Run, len(models))
	for i, m := range models {
		if seen[m.Name] {
			return nil, fmt.Errorf("selection: duplicate model %q", m.Name)
		}
		seen[m.Name] = true
		run, err := trainer.NewRun(m, d, cfg.HP, cfg.Seed, cfg.Salt)
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	return runs, nil
}

func names(pool []*trainer.Run) []string {
	out := make([]string, len(pool))
	for i, run := range pool {
		out[i] = run.Model.Name
	}
	return out
}

// halve is the one halving step (see the package comment): it marks in
// drop the worst-validating members not dropped yet until at most
// max(⌊n/2⌋, floor) of the n remain, and returns drop.
func halve(drop []bool, vals []float64, floor int) []bool {
	left := 0
	for _, d := range drop {
		if !d {
			left++
		}
	}
	limit := max(len(drop)/2, floor)
	for _, i := range numeric.ArgSortAsc(vals) {
		if left <= limit {
			break
		}
		if !drop[i] {
			drop[i] = true
			left--
		}
	}
	return drop
}

// winner fills the outcome with the best-validation survivor (the earliest
// in pool order among equals). Only the winner's run is asked for test
// accuracy, so only the winner pays for (and keeps cached) an extraction
// of the target's test split.
func (s survivors) winner() *Outcome {
	best := s.pool[0]
	for _, run := range s.pool[1:] {
		if run.FinalVal() > best.FinalVal() {
			best = run
		}
	}
	s.out.Winner = best.Model.Name
	s.out.WinnerVal = best.FinalVal()
	s.out.WinnerTest = best.TestAccuracy()
	return s.out
}

// BruteForce fine-tunes every model for the full epoch budget and selects
// the best final validation accuracy. Cost: |M| * Epochs. The pool trains
// one epoch pass at a time whatever the config's StageEpochs, so a budget
// can stop it between passes — every run owns its RNG stream, so the
// interleaving is bit-identical to training each model to completion.
func BruteForce(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, cfg Config) (*Outcome, error) {
	cfg.StageEpochs = 1
	s, err := search(ctx, models, d, cfg, 1, nil)
	if err != nil {
		return nil, err
	}
	// The pool never changes: it is reported once, and also when no pass
	// fit the budget.
	s.out.Stages = [][]string{names(s.pool)}
	return s.winner(), nil
}

// SuccessiveHalving is the paper's SH baseline: the search with halve
// alone.
func SuccessiveHalving(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, cfg Config) (*Outcome, error) {
	s, err := search(ctx, models, d, cfg, 1, func(pool []*trainer.Run, vals []float64, _, floor int) ([]bool, error) {
		return halve(make([]bool, len(pool)), vals, floor), nil
	})
	if err != nil {
		return nil, err
	}
	return s.winner(), nil
}
