package selection

import (
	"context"

	"testing"

	"twophase/internal/trainer"
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

func TestStageEpochsPlan(t *testing.T) {
	cfg := Config{HP: trainer.Hyperparams{LearningRate: 0.1, BatchSize: 8, Epochs: 5}, StageEpochs: 2}
	plan := cfg.stagePlan()
	if len(plan) != 3 || plan[0] != 2 || plan[1] != 2 || plan[2] != 1 {
		t.Fatalf("plan = %v", plan)
	}
	cfg.StageEpochs = 0
	if got := len(cfg.stagePlan()); got != 5 {
		t.Fatalf("default plan has %d stages", got)
	}
}

func TestStageEpochsReducesStages(t *testing.T) {
	models, m, target, cfg := fixture(t)
	cfg.StageEpochs = 2
	out, err := FineSelect(context.Background(), models, target, FineSelectOptions{Config: cfg, Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	// 5-epoch budget at s=2 -> 3 stages
	if len(out.Stages) != 3 {
		t.Fatalf("stages %d with s=2", len(out.Stages))
	}
	// total trained epochs never exceeds pool-size * budget
	if out.Ledger.TrainEpochs() > len(models)*cfg.HP.Epochs {
		t.Fatal("cost exceeds brute force")
	}
	if out.Winner == "" {
		t.Fatal("no winner")
	}
}

func TestStageEpochsSHConsistency(t *testing.T) {
	models, _, target, cfg := fixture(t)
	cfg.StageEpochs = 5 // one stage: SH degenerates to brute force + argmax
	sh, err := SuccessiveHalving(context.Background(), models, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Ledger.TrainEpochs() != len(models)*cfg.HP.Epochs {
		t.Fatalf("single-stage SH cost %d", sh.Ledger.TrainEpochs())
	}
	bf, err := BruteForce(context.Background(), models, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Winner != bf.Winner {
		t.Fatal("single-stage SH should agree with brute force")
	}
}
