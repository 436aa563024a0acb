package selection

import (
	"math"
	"reflect"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/perfmatrix"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

func trendFixture(t *testing.T) *perfmatrix.Matrix { return trendFixtureSeed(t, 42) }

// trendFixtureSeed builds a 3-model x 8-benchmark NLP matrix at the given
// world seed.
func trendFixtureSeed(t *testing.T, seed uint64) *perfmatrix.Matrix {
	t.Helper()
	w := synth.NewWorld(seed)
	repo, err := modelhub.NewRepository(w, datahub.TaskNLP, modelhub.NLPSpecs()[:3])
	if err != nil {
		t.Fatal(err)
	}
	var benches []*datahub.Dataset
	for _, spec := range datahub.NLPBenchmarks()[:8] {
		d, err := datahub.Generate(w, spec, datahub.Sizes{Train: 60, Val: 40, Test: 60})
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, d)
	}
	m, err := perfmatrix.Build(repo, benches, trainer.Default(datahub.TaskNLP), w.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPredictFinalInRange(t *testing.T) {
	m := trendFixture(t)
	p, err := predictFinal(m, m.Models[0], 0, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || p > 1 {
		t.Fatalf("prediction %v", p)
	}
}

// TestTrendsStageOutOfRange: predictFinal refuses a stage outside the
// offline curve and a model missing from the matrix, on every call (the
// error is not memoised away by the first one).
func TestTrendsStageOutOfRange(t *testing.T) {
	m := trendFixture(t)
	for i := 0; i < 2; i++ {
		for _, stage := range []int{-1, m.HP.Epochs, 99} {
			if p, err := predictFinal(m, m.Models[0], stage, 0.5); err == nil {
				t.Fatalf("stage %d accepted: predicted %v", stage, p)
			}
		}
		if p, err := predictFinal(m, "missing", 0, 0.5); err == nil {
			t.Fatalf("missing model accepted: predicted %v", p)
		}
	}
}

// TestMinedTrendsEqualTrendsAtStage: at two seeds, for every (model,
// stage) and a spread of validation accuracies, predictFinal answers the
// final test accuracy of the trend MatchTrend picks among the trends
// mined from that stage's validation accuracies of that matrix, bit for
// bit.
func TestMinedTrendsEqualTrendsAtStage(t *testing.T) {
	a, b := trendFixtureSeed(t, 42), trendFixtureSeed(t, 43)
	differ := false
	// Predict over all of a before touching b: trends keyed off less than
	// the matrix itself would now answer b's predictions with a's trends.
	for _, m := range []*perfmatrix.Matrix{a, b} {
		for i, model := range m.Models {
			for stage := 0; stage < m.HP.Epochs; stage++ {
				want := perfmatrix.MineTrends(m.ValAt(i, stage), m.Vector(i))
				if m == b {
					other := perfmatrix.MineTrends(a.ValAt(i, stage), a.Vector(i))
					differ = differ || !reflect.DeepEqual(other, want)
				}
				for _, val := range []float64{0, 0.37, 0.5, 0.93, 1} {
					p, err := predictFinal(m, model, stage, val)
					if err != nil {
						t.Fatal(err)
					}
					if wantP := want[perfmatrix.MatchTrend(want, val)].Test; math.Float64bits(p) != math.Float64bits(wantP) {
						t.Fatalf("seed %d: predictFinal(%s, stage %d, val %v) = %v, want %v", m.Seed, model, stage, val, p, wantP)
					}
				}
			}
		}
	}
	if !differ {
		t.Fatal("the two fixtures mined identical trends everywhere; the isolation check proved nothing")
	}
}

func TestTrendPredictionTracksReality(t *testing.T) {
	// On the offline matrix itself, matching a benchmark's first-epoch
	// validation should predict its final test within a loose tolerance
	// (the paper's Fig. 6 claim).
	m := trendFixture(t)
	model := m.Models[0]
	vals, finals := m.ValAt(0, 0), m.Vector(0)
	var worse int
	for i := range vals {
		pred, err := predictFinal(m, model, 0, vals[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pred-finals[i]) > 0.25 {
			worse++
		}
	}
	if worse > len(vals)/2 {
		t.Fatalf("trend prediction off by >0.25 for %d/%d benchmarks", worse, len(vals))
	}
}
