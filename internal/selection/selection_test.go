package selection

import (
	"context"
	"reflect"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/perfmatrix"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

// fixture builds a 10-model pool, matrix over 6 benchmarks, and a target.
func fixture(t *testing.T) ([]*modelhub.Model, *perfmatrix.Matrix, *datahub.Dataset, Config) {
	t.Helper()
	w := synth.NewWorld(42)
	repo, err := modelhub.NewRepository(w, datahub.TaskNLP, modelhub.NLPSpecs()[:10])
	if err != nil {
		t.Fatal(err)
	}
	var benches []*datahub.Dataset
	for _, spec := range datahub.NLPBenchmarks()[:6] {
		d, err := datahub.Generate(w, spec, datahub.Sizes{Train: 80, Val: 50, Test: 80})
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, d)
	}
	m, err := perfmatrix.Build(repo, benches, trainer.Default(datahub.TaskNLP), w.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	target, err := datahub.Generate(w, datahub.NLPTargets()[1], datahub.Sizes{Train: 80, Val: 50, Test: 80})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{HP: trainer.Default(datahub.TaskNLP), Seed: w.Seed, Salt: "test"}
	return repo.Models(), m, target, cfg
}

func TestBruteForceCost(t *testing.T) {
	models, _, target, cfg := fixture(t)
	out, err := BruteForce(context.Background(), models, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.Ledger.TrainEpochs(), len(models)*cfg.HP.Epochs; got != want {
		t.Fatalf("BF cost %d, want %d", got, want)
	}
	if out.Winner == "" || out.WinnerTest <= 0 {
		t.Fatal("BF produced no winner")
	}
	// winner must have the best final validation accuracy
	for _, m := range models {
		curve, err := trainer.FineTune(pick(models, m.Name), target, cfg.HP, cfg.Seed, cfg.Salt)
		if err != nil {
			t.Fatal(err)
		}
		if curve.FinalVal() > out.WinnerVal+1e-12 {
			t.Fatalf("model %s val %v beats winner %v", m.Name, curve.FinalVal(), out.WinnerVal)
		}
	}
}

func pick(models []*modelhub.Model, name string) *modelhub.Model {
	for _, m := range models {
		if m.Name == name {
			return m
		}
	}
	return nil
}

func TestSuccessiveHalvingSchedule(t *testing.T) {
	models, _, target, cfg := fixture(t)
	out, err := SuccessiveHalving(context.Background(), models, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 models, 5 epochs: pools 10,5,2,1,1 -> 19 epochs (paper Table V)
	wantPools := []int{10, 5, 2, 1, 1}
	if len(out.Stages) != len(wantPools) {
		t.Fatalf("stages %d", len(out.Stages))
	}
	for i, want := range wantPools {
		if len(out.Stages[i]) != want {
			t.Fatalf("stage %d pool %d, want %d", i, len(out.Stages[i]), want)
		}
	}
	if out.Ledger.TrainEpochs() != 19 {
		t.Fatalf("SH cost %d, want 19", out.Ledger.TrainEpochs())
	}
}

func TestSuccessiveHalvingDeterministic(t *testing.T) {
	models, _, target, cfg := fixture(t)
	a, err := SuccessiveHalving(context.Background(), models, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SuccessiveHalving(context.Background(), models, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Winner != b.Winner || a.WinnerTest != b.WinnerTest {
		t.Fatal("SH not deterministic")
	}
}

func TestFineSelectCheaperThanSH(t *testing.T) {
	models, m, target, cfg := fixture(t)
	sh, err := SuccessiveHalving(context.Background(), models, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := FineSelect(context.Background(), models, target, FineSelectOptions{Config: cfg, Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Ledger.TrainEpochs() > sh.Ledger.TrainEpochs() {
		t.Fatalf("FS cost %d above SH %d", fs.Ledger.TrainEpochs(), sh.Ledger.TrainEpochs())
	}
	if fs.Winner == "" {
		t.Fatal("no winner")
	}
}

// TestPruneTieDirections pins which of two validation-tied members the
// halving rule lets go: the earlier in pool order. halve alone (successive
// halving) and Algorithm 1's prune with a filter that drops nobody (equal
// predictions) must both give it.
func TestPruneTieDirections(t *testing.T) {
	same := []float64{0.5, 0.5, 0.5, 0.5}
	for _, c := range []struct {
		vals []float64
		drop []bool
	}{
		{[]float64{0.5, 0.5, 0.5, 0.5}, []bool{true, true, false, false}},
		{[]float64{0.9, 0.5, 0.5, 0.1}, []bool{false, true, false, true}},
		{[]float64{0.5, 0.9, 0.1, 0.5}, []bool{true, false, true, false}},
		{[]float64{0.7, 0.5, 0.5, 0.9}, []bool{false, true, true, false}},
	} {
		if got := halve(make([]bool, len(c.vals)), c.vals, 1); !reflect.DeepEqual(got, c.drop) {
			t.Errorf("halve(%v) drops %v, want %v", c.vals, got, c.drop)
		}
		if got := halve(trendFilter(c.vals, same, 0, 1), c.vals, 1); !reflect.DeepEqual(got, c.drop) {
			t.Errorf("Algorithm 1's prune(%v) drops %v, want %v", c.vals, got, c.drop)
		}
	}
}

func TestFineSelectHalvingBackstop(t *testing.T) {
	models, m, target, cfg := fixture(t)
	out, err := FineSelect(context.Background(), models, target, FineSelectOptions{Config: cfg, Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out.Stages); i++ {
		limit := len(out.Stages[i-1]) / 2
		if limit < 1 {
			limit = 1
		}
		if len(out.Stages[i]) > limit {
			t.Fatalf("stage %d kept %d models, limit %d", i, len(out.Stages[i]), limit)
		}
	}
}

func TestFineSelectThresholdMonotoneCost(t *testing.T) {
	models, m, target, cfg := fixture(t)
	prev := -1
	for _, th := range []float64{0, 0.05, 0.2} {
		out, err := FineSelect(context.Background(), models, target, FineSelectOptions{Config: cfg, Matrix: m, Threshold: th})
		if err != nil {
			t.Fatal(err)
		}
		if out.Ledger.TrainEpochs() < prev {
			t.Fatalf("threshold %v reduced cost below smaller threshold", th)
		}
		prev = out.Ledger.TrainEpochs()
	}
}

func TestSelectionErrors(t *testing.T) {
	models, m, target, cfg := fixture(t)
	if _, err := BruteForce(context.Background(), nil, target, cfg); err == nil {
		t.Fatal("empty pool accepted")
	}
	dup := []*modelhub.Model{models[0], models[0]}
	if _, err := SuccessiveHalving(context.Background(), dup, target, cfg); err == nil {
		t.Fatal("duplicate models accepted")
	}
	if _, err := FineSelect(context.Background(), models, target, FineSelectOptions{Config: cfg}); err == nil {
		t.Fatal("FineSelect without a matrix accepted")
	}
	if _, err := EnsembleSelect(context.Background(), models, target, FineSelectOptions{Config: cfg}, 2); err == nil {
		t.Fatal("EnsembleSelect without a matrix accepted")
	}
	if _, err := FineSelect(context.Background(), models, target, FineSelectOptions{Config: cfg, Matrix: m}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleModelPool(t *testing.T) {
	models, m, target, cfg := fixture(t)
	out, err := FineSelect(context.Background(), models[:1], target, FineSelectOptions{Config: cfg, Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner != models[0].Name {
		t.Fatal("single-model pool must select that model")
	}
	if out.Ledger.TrainEpochs() != cfg.HP.Epochs {
		t.Fatalf("single-model cost %d", out.Ledger.TrainEpochs())
	}
}

func TestOutcomeStagesStartWithFullPool(t *testing.T) {
	models, m, target, cfg := fixture(t)
	out, err := FineSelect(context.Background(), models, target, FineSelectOptions{Config: cfg, Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Stages[0]) != len(models) {
		t.Fatal("stage 0 must contain the full pool")
	}
}
