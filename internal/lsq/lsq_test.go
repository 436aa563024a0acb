package lsq

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/fanout"
	"twophase/internal/modelhub"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

// fixture builds a small candidate pool around one NLP target: one model
// aligned with the target domain, one foreign, one weaker aligned.
func fixture(t *testing.T) ([]*modelhub.Model, *datahub.Dataset) {
	t.Helper()
	w := synth.NewWorld(42)
	specs := []modelhub.Spec{
		{Name: "lsq/aligned", Task: datahub.TaskNLP, Arch: "bert", Params: 110,
			Domains:    map[string]float64{datahub.DomainSentiment: 1},
			Capability: 0.95, SourceClasses: 3},
		{Name: "lsq/foreign", Task: datahub.TaskNLP, Arch: "bert", Params: 110,
			Domains:    map[string]float64{datahub.DomainMultilingual: 1},
			Capability: 0.5, SourceClasses: 3},
		{Name: "lsq/weak", Task: datahub.TaskNLP, Arch: "bert", Params: 30,
			Domains:    map[string]float64{datahub.DomainSentiment: 1},
			Capability: 0.05, SourceClasses: 3},
	}
	models := make([]*modelhub.Model, len(specs))
	for i, s := range specs {
		m, err := modelhub.Materialize(w, s)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	d, err := datahub.Generate(w, datahub.Spec{
		Name: "lsq/ds", Task: datahub.TaskNLP,
		Domains: map[string]float64{datahub.DomainSentiment: 1},
		Classes: 3, Separability: 2, Noise: 1.8,
	}, datahub.Sizes{Train: 160, Val: 60, Test: 60})
	if err != nil {
		t.Fatal(err)
	}
	return models, d
}

func TestFitBeatsChance(t *testing.T) {
	models, d := fixture(t)
	val, test, err := fit(models[0], d)
	if err != nil {
		t.Fatal(err)
	}
	chance := 1.0 / float64(d.Classes)
	if val <= chance || test <= chance {
		t.Fatalf("aligned head val=%v test=%v, want above chance %v", val, test, chance)
	}
	if val < 0 || val > 1 || test < 0 || test > 1 {
		t.Fatalf("accuracy out of [0,1]: val=%v test=%v", val, test)
	}
}

func TestFitRejectsTaskMismatch(t *testing.T) {
	models, _ := fixture(t)
	w := synth.NewWorld(7)
	d, err := datahub.Generate(w, datahub.Spec{
		Name: "lsq/vision", Task: datahub.TaskCV,
		Domains: map[string]float64{datahub.DomainNatural: 1},
		Classes: 3, Separability: 2, Noise: 1.8,
	}, datahub.Sizes{Train: 40, Val: 20, Test: 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fit(models[0], d); err == nil {
		t.Fatal("cross-task fit succeeded, want error")
	}
}

func TestRankChargesInferenceOnly(t *testing.T) {
	models, d := fixture(t)
	var ledger trainer.Ledger
	res, err := Rank(context.Background(), models, d, Options{}, &ledger)
	if err != nil {
		t.Fatal(err)
	}
	if ledger.TrainEpochs() != 0 {
		t.Fatalf("lsq charged %d training epochs, want 0", ledger.TrainEpochs())
	}
	if want := 0.5 * float64(len(models)); ledger.Total() != want {
		t.Fatalf("ledger total = %v, want %v (0.5 per scored model)", ledger.Total(), want)
	}
	if len(res.Names) != len(models) || res.Names[0] != "lsq/aligned" {
		t.Fatalf("result names %v out of pool order", res.Names)
	}
}

func TestRankPrefersAligned(t *testing.T) {
	models, d := fixture(t)
	res, err := Rank(context.Background(), models, d, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Names[res.Best()]; got != "lsq/aligned" {
		t.Fatalf("best = %q (val %v), want lsq/aligned", got, res.Val)
	}
}

// TestRankBitIdenticalAcrossWorkers pins the determinism contract the
// serving paths rely on: worker count must never change a single bit.
func TestRankBitIdenticalAcrossWorkers(t *testing.T) {
	models, d := fixture(t)
	base, err := Rank(context.Background(), models, d, Options{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, -1} {
		got, err := Rank(context.Background(), models, d, Options{Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Val {
			if math.Float64bits(base.Val[i]) != math.Float64bits(got.Val[i]) ||
				math.Float64bits(base.Test[i]) != math.Float64bits(got.Test[i]) {
				t.Fatalf("workers=%d diverged at %s", workers, base.Names[i])
			}
		}
	}
}

func TestRankCanceledContext(t *testing.T) {
	models, d := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Rank(ctx, models, d, Options{}, nil); err == nil {
		t.Fatal("canceled rank succeeded, want error")
	}
}

func TestTopKKeepsPoolOrder(t *testing.T) {
	models, d := fixture(t)
	res, err := Rank(context.Background(), models, d, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TopK(len(models) + 1); len(got) != len(models) {
		t.Fatalf("TopK over pool size returned %d names", len(got))
	}
	two := res.TopK(2)
	if len(two) != 2 {
		t.Fatalf("TopK(2) returned %d names", len(two))
	}
	// Whatever two survive, they must appear in original pool order.
	pos := map[string]int{}
	for i, m := range models {
		pos[m.Name] = i
	}
	if pos[two[0]] >= pos[two[1]] {
		t.Fatalf("TopK(2) = %v not in pool order", two)
	}
}

// TestRankSurvivesMalformedWorld: a label outside [0, Classes) makes every
// fit index out of range. On the request path (strategy "lsq",
// prefilter_top_k) that must cost the request an error naming the
// candidate, at any width — a panic on a pool goroutine would take the
// whole backend down.
func TestRankSurvivesMalformedWorld(t *testing.T) {
	models, d := fixture(t)
	d.Train.Y[0] = d.Classes
	for _, workers := range []int{1, 2} {
		var ledger trainer.Ledger
		res, err := Rank(context.Background(), models, d, Options{Workers: workers}, &ledger)
		var p *fanout.Panic
		if res != nil || !errors.As(err, &p) || !strings.Contains(err.Error(), models[0].Name) {
			t.Fatalf("workers=%d: got (%v, %v), want an error naming %s", workers, res, err, models[0].Name)
		}
		if ledger.Total() != 0 {
			t.Fatalf("workers=%d: failed rank charged %v epochs", workers, ledger.Total())
		}
	}
}
