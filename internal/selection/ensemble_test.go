package selection

import (
	"context"
	"testing"
)

func TestEnsembleSelectBasics(t *testing.T) {
	models, m, target, cfg := fixture(t)
	opts := FineSelectOptions{Config: cfg, Matrix: m}
	out, err := EnsembleSelect(context.Background(), models, target, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Members) != 3 {
		t.Fatalf("ensemble has %d members", len(out.Members))
	}
	if out.WinnerTest <= 0 || out.WinnerTest > 1 || out.WinnerVal <= 0 {
		t.Fatalf("ensemble accuracies val=%v test=%v", out.WinnerVal, out.WinnerTest)
	}
	if out.BestMemberTest <= 0 {
		t.Fatal("no best member accuracy")
	}
	// members must be unique and drawn from the pool
	seen := map[string]bool{}
	poolSet := map[string]bool{}
	for _, mm := range models {
		poolSet[mm.Name] = true
	}
	for _, name := range out.Members {
		if seen[name] || !poolSet[name] {
			t.Fatalf("bad member %q", name)
		}
		seen[name] = true
	}
}

func TestEnsembleSelectKeepsAtLeastK(t *testing.T) {
	models, m, target, cfg := fixture(t)
	out, err := EnsembleSelect(context.Background(), models, target, FineSelectOptions{Config: cfg, Matrix: m}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, pool := range out.Stages {
		if len(pool) < 4 && i > 0 {
			t.Fatalf("stage %d shrank below k: %d", i, len(pool))
		}
	}
}

func TestEnsembleSelectInvalidK(t *testing.T) {
	models, m, target, cfg := fixture(t)
	if _, err := EnsembleSelect(context.Background(), models, target, FineSelectOptions{Config: cfg, Matrix: m}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestEnsembleCostsMoreThanSingle(t *testing.T) {
	models, m, target, cfg := fixture(t)
	opts := FineSelectOptions{Config: cfg, Matrix: m}
	single, err := FineSelect(context.Background(), models, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := EnsembleSelect(context.Background(), models, target, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Ledger.TrainEpochs() < single.Ledger.TrainEpochs() {
		t.Fatalf("ensemble cost %d below single %d", ens.Ledger.TrainEpochs(), single.Ledger.TrainEpochs())
	}
}

func TestEnsembleK1MatchesFineSelectWinnerQuality(t *testing.T) {
	models, m, target, cfg := fixture(t)
	opts := FineSelectOptions{Config: cfg, Matrix: m}
	ens, err := EnsembleSelect(context.Background(), models, target, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Members) != 1 {
		t.Fatalf("k=1 kept %d members", len(ens.Members))
	}
	// a single-member "ensemble" is just that model's prediction
	if ens.WinnerTest != ens.BestMemberTest {
		t.Fatalf("single-member ensemble %v != member %v", ens.WinnerTest, ens.BestMemberTest)
	}
}
