package experiments

// The zero-epoch lsq extension: how often does the closed-form
// least-squares proxy stage — alone, or as a pre-filter in front of the
// epoch-trained strategies — land on the same winner the full two-phase
// pipeline trains its way to, and at what fraction of the epoch cost?

import (
	"context"
	"math"

	"twophase/internal/core"
	"twophase/internal/datahub"
)

// extPrefilterK is the pre-filter width the experiment measures at —
// the same top-4 cut TestPrefilterKeepsTwoPhaseWinner (internal/core) pins.
const extPrefilterK = 4

// extLSQ builds the winner-agreement-vs-epochs table across both task
// families: the epoch-trained two-phase baseline against the zero-epoch
// lsq strategy, prefiltered two-phase, and prefiltered SH. Strategy names
// go through core.ParseStrategy — the same single parser every serving
// layer validates against — so the harness can never accept a wire name
// the API would reject.
func extLSQ(e *Env) (*Table, error) {
	t := &Table{
		Title: "Extension — zero-epoch lsq proxy stage and recall pre-filter",
		Header: []string{"dataset", "2PH winner", "2PH ep",
			"lsq", "lsq ep", "pre-2PH", "pre-2PH ep", "pre-SH", "pre-SH ep"},
	}
	ctx := context.Background()
	variants := []struct {
		key  string // agreement-counter key and display name
		wire string // strategy wire name, parsed by core.ParseStrategy
		topK int
	}{
		{"lsq", "lsq", 0},
		{"pre-2PH", "two-phase", extPrefilterK},
		{"pre-SH", "sh", extPrefilterK},
	}
	agree := map[string]map[string]int{} // task -> variant key -> count
	totals := map[string]int{}           // task -> targets
	lsqFree := true
	preOverBase := math.MinInt // largest prefiltered two-phase epochs minus two-phase's
	for _, tgt := range allTargets {
		fw, err := e.Framework(tgt.task)
		if err != nil {
			return nil, err
		}
		d, err := fw.Catalog.Get(tgt.dataset)
		if err != nil {
			return nil, err
		}
		baseline, err := fw.Select(ctx, d)
		if err != nil {
			return nil, err
		}
		if agree[tgt.task] == nil {
			agree[tgt.task] = map[string]int{}
		}
		totals[tgt.task]++
		row := []interface{}{tgt.label, baseline.Outcome.Winner, baseline.Ledger.TrainEpochs()}
		for _, v := range variants {
			strat, err := core.ParseStrategy(v.wire)
			if err != nil {
				return nil, err
			}
			report, err := fw.SelectWith(ctx, d, core.SelectOptions{Strategy: strat, PrefilterTopK: v.topK})
			if err != nil {
				return nil, err
			}
			mark := "diff"
			if report.Outcome.Winner == baseline.Outcome.Winner {
				mark = "same"
				agree[tgt.task][v.key]++
			}
			ep := report.Ledger.TrainEpochs()
			row = append(row, mark, ep)
			switch v.key {
			case "lsq":
				lsqFree = lsqFree && ep == 0
			case "pre-2PH":
				preOverBase = max(preOverBase, ep-baseline.Ledger.TrainEpochs())
			}
		}
		t.AddRow(row...)
	}
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		n := totals[task]
		if n == 0 {
			continue
		}
		t.Note("%s winner agreement vs two-phase: lsq %d/%d, prefiltered two-phase %d/%d, prefiltered SH %d/%d (top-%d)",
			task, agree[task]["lsq"], n, agree[task]["pre-2PH"], n, agree[task]["pre-SH"], n, extPrefilterK)
	}
	t.Claim("extLSQ.cost", lsqFree && preOverBase <= 0, float64(preOverBase),
		"lsq trains 0 epochs and prefiltered two-phase trains no more epochs than two-phase on every target; value: largest prefiltered − unfiltered epochs")
	return t, nil
}
