package perfmatrix

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

// trendFixture builds a 3-model x 8-benchmark matrix of the task family
// at the given world seed.
func trendFixture(t *testing.T, task string, seed uint64) *Matrix {
	t.Helper()
	w := synth.NewWorld(seed)
	specs, benchSpecs := modelhub.NLPSpecs(), datahub.NLPBenchmarks()
	if task == datahub.TaskCV {
		specs, benchSpecs = modelhub.CVSpecs(), datahub.CVBenchmarks()
	}
	repo, err := modelhub.NewRepository(w, task, specs[:3])
	if err != nil {
		t.Fatal(err)
	}
	var benches []*datahub.Dataset
	for _, spec := range benchSpecs[:8] {
		d, err := datahub.Generate(w, spec, datahub.Sizes{Train: 60, Val: 40, Test: 60})
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, d)
	}
	m, err := Build(repo, benches, trainer.Default(task), w.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrends(t *testing.T) {
	m := trendFixture(t, datahub.TaskNLP, 42)
	trends, err := m.Trends(m.Models[0], 0)
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

// trendsBitEqual reports whether two trend lists hold the same members
// and the same float64 bits.
func trendsBitEqual(a, b []Trend) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Val) != math.Float64bits(b[i].Val) ||
			math.Float64bits(a[i].Test) != math.Float64bits(b[i].Test) ||
			!slices.Equal(a[i].Members, b[i].Members) {
			return false
		}
	}
	return true
}

// TestTrendsMinedOncePerMatrix: on NLP and CV matrices at two seeds,
// Matrix.Trends answers MineTrends over the stage's validation accuracies
// bit for bit for every (model, stage); racing first callers share one
// table; two matrices never share one; and bad input is an error on every
// call. Run with -race.
func TestTrendsMinedOncePerMatrix(t *testing.T) {
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		a, b := trendFixture(t, task, 42), trendFixture(t, task, 43)

		got := make([][]Trend, 16)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr, err := a.Trends(a.Models[1], 2)
				if err != nil {
					t.Error(err)
				}
				got[g] = tr
			}()
		}
		wg.Wait()
		for g := range got {
			if len(got[g]) == 0 || &got[g][0] != &got[0][0] {
				t.Fatalf("%s: racing first caller %d got another table", task, g)
			}
		}

		// Mine all of a before touching b: a table keyed off less than the
		// matrix itself would now answer b's lookups with a's trends.
		differ := false
		for _, m := range []*Matrix{a, b} {
			for i, model := range m.Models {
				for stage := 0; stage < m.HP.Epochs; stage++ {
					tr, err := m.Trends(model, stage)
					if err != nil {
						t.Fatal(err)
					}
					if want := MineTrends(m.ValAt(i, stage), m.Vector(i)); !trendsBitEqual(tr, want) {
						t.Fatalf("%s seed %d %s stage %d: Trends %+v, MineTrends %+v", task, m.Seed, model, stage, tr, want)
					}
					again, _ := m.Trends(model, stage)
					if &again[0] != &tr[0] {
						t.Fatalf("%s seed %d %s stage %d: second lookup mined again", task, m.Seed, model, stage)
					}
					if m == b {
						other, _ := a.Trends(model, stage)
						if &other[0] == &tr[0] {
							t.Fatalf("%s %s stage %d: two matrices share a table", task, model, stage)
						}
						differ = differ || !trendsBitEqual(other, tr)
					}
				}
			}
		}
		if !differ {
			t.Fatalf("%s: the two fixtures mined identical trends everywhere; the isolation check proved nothing", task)
		}

		for i := 0; i < 2; i++ {
			for _, stage := range []int{-1, a.HP.Epochs} {
				if tr, err := a.Trends(a.Models[0], stage); err == nil {
					t.Fatalf("%s: stage %d answered %+v", task, stage, tr)
				}
			}
			if tr, err := a.Trends("nope", 0); err == nil {
				t.Fatalf("%s: unknown model answered %+v", task, tr)
			}
		}
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
	// Tied starting quantiles: the first center overtakes its emptied
	// twin, so the labels leave value order; MineTrends still returns the
	// groups sorted by mean.
	tied := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.7, 0.7, 1, 1}
	want := []Trend{{0.5, 0.5, []int{0, 1, 2, 3, 4, 5}}, {0.7, 0.7, []int{6, 7}}, {1, 1, []int{8, 9}}}
	if got := MineTrends(tied, tied); !reflect.DeepEqual(got, want) {
		t.Fatalf("trends over tied starts %+v, want %+v", got, want)
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
