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

func TestTrendsAtStage(t *testing.T) {
	m := trendFixture(t)
	trends, err := TrendsAtStage(m, m.Models[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(trends) == 0 || len(trends) > trendClusters {
		t.Fatalf("trend count %d", len(trends))
	}
	total := 0
	for i, tr := range trends {
		total += len(tr.Members)
		if i > 0 && trends[i-1].Val > tr.Val {
			t.Fatal("trends not sorted by val")
		}
		if tr.Val < 0 || tr.Val > 1 || tr.Test < 0 || tr.Test > 1 {
			t.Fatalf("trend stats out of range: %+v", tr)
		}
	}
	if total != len(m.Datasets) {
		t.Fatalf("trends cover %d datasets, want %d", total, len(m.Datasets))
	}
}

func TestTrendsStageOutOfRange(t *testing.T) {
	m := trendFixture(t)
	if _, err := TrendsAtStage(m, m.Models[0], 99); err == nil {
		t.Fatal("stage out of range accepted")
	}
	if _, err := TrendsAtStage(m, "missing", 0); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestMatchTrend(t *testing.T) {
	trends := []Trend{{Val: 0.3, Test: 0.4}, {Val: 0.6, Test: 0.7}, {Val: 0.9, Test: 0.95}}
	if got := MatchTrend(trends, 0.58); got != 1 {
		t.Fatalf("matched %d", got)
	}
	if got := MatchTrend(trends, 0.0); got != 0 {
		t.Fatalf("matched %d", got)
	}
	if got := MatchTrend(trends, 1.0); got != 2 {
		t.Fatalf("matched %d", got)
	}
	if MatchTrend(nil, 0.5) != -1 {
		t.Fatal("empty trends should return -1")
	}
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

func TestKMeans1DOrderedLabels(t *testing.T) {
	points := []float64{0.9, 0.1, 0.5, 0.11, 0.91, 0.52}
	assign := kmeans1D(points, 3)
	// labels must be ordered by value: low values get label 0
	for i, p := range points {
		for j, q := range points {
			if p < q && assign[i] > assign[j] {
				t.Fatalf("label order violated: %v->%d, %v->%d", p, assign[i], q, assign[j])
			}
		}
	}
	// natural groups must be recovered
	if assign[1] != assign[3] || assign[2] != assign[5] || assign[0] != assign[4] {
		t.Fatalf("1-D clusters wrong: %v", assign)
	}
}

func TestKMeans1DEdgeCases(t *testing.T) {
	if got := kmeans1D(nil, 3); got != nil {
		t.Fatal("nil input")
	}
	got := kmeans1D([]float64{0.5}, 4)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("single point %v", got)
	}
	// identical points collapse into one cluster
	same := kmeans1D([]float64{0.5, 0.5, 0.5}, 2)
	for _, a := range same {
		if a != same[0] {
			t.Fatal("identical points split across clusters")
		}
	}
}

func TestKMeans1DDeterministic(t *testing.T) {
	points := []float64{0.2, 0.8, 0.5, 0.21, 0.79}
	a := kmeans1D(points, 2)
	b := kmeans1D(points, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("kmeans1D not deterministic")
		}
	}
}

func TestTrendPredictionTracksReality(t *testing.T) {
	// On the offline matrix itself, matching a benchmark's first-epoch
	// validation should predict its final test within a loose tolerance
	// (the paper's Fig. 6 claim).
	m := trendFixture(t)
	model := m.Models[0]
	vals, finals, err := m.ValCurves(model)
	if err != nil {
		t.Fatal(err)
	}
	var worse int
	for i := range vals {
		pred, err := predictFinal(m, model, 0, vals[i][0])
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

// TestMinedTrendsEqualTrendsAtStage: the trends predictFinal looks up are
// mined once per (matrix, model, stage) and equal a fresh TrendsAtStage
// for every model and stage; a second matrix gets its
// own trends, never the first one's.
func TestMinedTrendsEqualTrendsAtStage(t *testing.T) {
	a, b := trendFixtureSeed(t, 42), trendFixtureSeed(t, 43)
	differ := false
	// Mine all of a before touching b: anything keyed off less than the
	// matrix itself would now answer b's lookups with a's trends.
	for _, m := range []*perfmatrix.Matrix{a, b} {
		for _, model := range m.Models {
			for stage := 0; stage < m.Epochs; stage++ {
				want, err := TrendsAtStage(m, model, stage)
				if err != nil {
					t.Fatal(err)
				}
				got, err := minedTrends(m, model, stage)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s stage %d: mined trends differ from TrendsAtStage", m.Seed, model, stage)
				}
				again, err := minedTrends(m, model, stage)
				if err != nil {
					t.Fatal(err)
				}
				if &again[0] != &got[0] {
					t.Fatalf("seed %d %s stage %d: second lookup mined again", m.Seed, model, stage)
				}
				if m == b {
					other, err := minedTrends(a, model, stage)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(other, got) {
						differ = true
					}
				}
				for _, val := range []float64{0, 0.37, 0.5, 0.93, 1} {
					p, err := predictFinal(m, model, stage, val)
					if err != nil {
						t.Fatal(err)
					}
					if wantP := want[MatchTrend(want, val)].Test; math.Float64bits(p) != math.Float64bits(wantP) {
						t.Fatalf("predictFinal(%s, stage %d, val %v) = %v, want %v", model, stage, val, p, wantP)
					}
				}
			}
		}
	}
	if !differ {
		t.Fatal("the two fixtures mined identical trends everywhere; the isolation check proved nothing")
	}
	// Errors are reported on every lookup, not memoised away.
	for i := 0; i < 2; i++ {
		if _, err := predictFinal(a, a.Models[0], a.Epochs, 0.5); err == nil {
			t.Fatal("out-of-range stage accepted")
		}
		if _, err := predictFinal(a, "nope", 0, 0.5); err == nil {
			t.Fatal("unknown model accepted")
		}
	}
}
