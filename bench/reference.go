package main

import (
	"context"
	"fmt"
	"math"

	"twophase/internal/api"
	"twophase/internal/core"
	"twophase/internal/lifecycle"
)

// answerKey names one selection: a target within a world.
type answerKey struct {
	World  lifecycle.Key
	Target string
}

// answer is what the serving stack must return for one selection, plus the
// regret the winner carries against the repository's best model.
type answer struct {
	Winner    string
	ValAcc    float64
	TestAcc   float64
	Epochs    float64
	Recalled  int
	Truncated bool
	// RegretPP is (best oracle test accuracy − the winner's) × 100, both
	// taken from Framework.OracleAccuracies so that it can never be negative.
	RegretPP float64
}

// reference holds the expected answer of every distinct selection of a plan.
type reference map[answerKey]answer

// buildReference computes the expected answers on frameworks the bench
// builds itself with core.Build — never the fleet's, and never through the
// store — so a fault anywhere in the serving path shows as a mismatch. The
// nonce workloads are answered without any budget: that the non-binding
// max_epochs changes nothing is part of what is checked.
func buildReference(ctx context.Context, p *plan) (reference, error) {
	targets := make(map[lifecycle.Key][]string)
	for _, pl := range p.Lap {
		for _, t := range pl.Targets {
			targets[pl.World] = append(targets[pl.World], t)
		}
	}
	opts := core.SelectOptions{}
	if p.w.Shape == shapeRepeat {
		zero := 0
		opts.MaxEpochs = &zero
	}
	ref := make(reference)
	for _, world := range p.w.Worlds {
		fw, err := core.Build(core.Options{Task: world.Task, Seed: world.Seed, Sizes: p.w.Sizes, Workers: -1})
		if err != nil {
			return nil, fmt.Errorf("reference build %s: %w", world, err)
		}
		for _, name := range targets[world] {
			d, err := fw.Catalog.Get(name)
			if err != nil {
				return nil, err
			}
			rep, err := fw.SelectWith(ctx, d, opts)
			if err != nil {
				return nil, fmt.Errorf("reference select %s/%s: %w", world, name, err)
			}
			oracle, err := fw.OracleAccuracies(ctx, d)
			if err != nil {
				return nil, fmt.Errorf("reference oracle %s/%s: %w", world, name, err)
			}
			best := math.Inf(-1)
			for _, acc := range oracle {
				best = math.Max(best, acc)
			}
			a := answer{
				Winner:    rep.Outcome.Winner,
				ValAcc:    rep.Outcome.WinnerVal,
				TestAcc:   rep.Outcome.WinnerTest,
				Epochs:    rep.TotalEpochs(),
				Truncated: rep.Truncated,
				RegretPP:  (best - oracle[rep.Outcome.Winner]) * 100,
			}
			if rep.Recall != nil {
				a.Recalled = len(rep.Recall.Recalled)
			}
			ref[answerKey{world, name}] = a
		}
	}
	return ref, nil
}

// tally accumulates what the verified responses of a phase reported.
type tally struct {
	Requests int
	Failed   int
	Selects  int
	Epochs   float64
	RegretPP float64
	Recalled int
	// FirstFailure keeps one mismatch for the run's diagnostics.
	FirstFailure string
}

func (t *tally) merge(o tally) {
	t.Requests += o.Requests
	t.Failed += o.Failed
	t.Selects += o.Selects
	t.Epochs += o.Epochs
	t.RegretPP += o.RegretPP
	t.Recalled += o.Recalled
	if t.FirstFailure == "" {
		t.FirstFailure = o.FirstFailure
	}
}

// check verifies one response bit for bit against the reference and adds it
// to the tally. An error, a refusal or any differing field fails the whole
// request.
func (ref reference) check(t *tally, req *api.SelectRequest, resp *api.SelectResponse, err error) {
	t.Requests++
	fail := func(format string, args ...any) {
		t.Failed++
		if t.FirstFailure == "" {
			t.FirstFailure = fmt.Sprintf(format, args...)
		}
	}
	if err != nil {
		fail("%s %v: %v", req.Task, req.Targets, err)
		return
	}
	if len(resp.Results) != len(req.Targets) {
		fail("%s %v: %d results", req.Task, req.Targets, len(resp.Results))
		return
	}
	world := lifecycle.Key{Task: req.Task, Seed: *req.Seed}
	var sum tally
	for i, r := range resp.Results {
		want, ok := ref[answerKey{world, req.Targets[i]}]
		got := answer{
			Winner: r.Winner, ValAcc: r.ValAcc, TestAcc: r.TestAcc, Epochs: r.Epochs,
			Recalled: r.Recalled, Truncated: r.Truncated, RegretPP: want.RegretPP,
		}
		if !ok || r.Error != "" || r.Target != req.Targets[i] || got != want {
			fail("%s/%s: got %+v (error %q), want %+v", world, req.Targets[i], got, r.Error, want)
			return
		}
		sum.Selects++
		sum.Epochs += r.Epochs
		sum.RegretPP += want.RegretPP
		sum.Recalled += r.Recalled
	}
	t.merge(sum)
}
