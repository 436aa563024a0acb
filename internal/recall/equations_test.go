package recall

import (
	"math"
	"testing"

	"twophase/internal/cluster"
	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/perfmatrix"
	"twophase/internal/proxy"
	"twophase/internal/synth"
)

// stubScorer returns fixed proxy scores keyed by model name, so Eq. 2-4
// can be verified by exact arithmetic.
type stubScorer struct{ scores map[string]float64 }

func (stubScorer) Name() string { return "stub" }

func (s stubScorer) Score(m *modelhub.Model, _ *datahub.Dataset) (float64, error) {
	return s.scores[m.Name], nil
}

// handMatrix builds a matrix with exact performance vectors (single-epoch
// curves whose final test IS the vector entry), no training involved.
func handMatrix(t *testing.T, names []string, vecs [][]float64, datasets []string) *perfmatrix.Matrix {
	t.Helper()
	m := &perfmatrix.Matrix{
		Task:     datahub.TaskNLP,
		Models:   names,
		Datasets: datasets,
		Epochs:   1,
		Entries:  map[string]*perfmatrix.Entry{},
	}
	for i, name := range names {
		for j, ds := range datasets {
			m.Entries[name+"\x00"+ds] = &perfmatrix.Entry{
				Model: name, Dataset: ds,
				Val:  []float64{vecs[i][j]},
				Test: []float64{vecs[i][j]},
			}
		}
	}
	return m
}

func TestRecallEquationsExact(t *testing.T) {
	w := synth.NewWorld(42)
	// Six models: {A,B} identical vectors, {C,D} identical, E and F
	// distinct singletons.
	names := []string{"A", "B", "C", "D", "E", "F"}
	vecs := [][]float64{
		{0.90, 0.80, 0.70, 0.60},
		{0.90, 0.80, 0.70, 0.60},
		{0.50, 0.55, 0.60, 0.65},
		{0.50, 0.55, 0.60, 0.65},
		{0.20, 0.90, 0.20, 0.90},
		{0.70, 0.10, 0.80, 0.10},
	}
	datasets := []string{"d1", "d2", "d3", "d4"}
	m := handMatrix(t, names, vecs, datasets)

	// Materialize real model objects (the scorer ignores their weights).
	var specs []modelhub.Spec
	for _, n := range names {
		specs = append(specs, modelhub.Spec{
			Name: n, Task: datahub.TaskNLP, Arch: "bert", Params: 1,
			Capability: 0.5, SourceClasses: 2,
		})
	}
	repo, err := modelhub.NewRepository(w, datahub.TaskNLP, specs)
	if err != nil {
		t.Fatal(err)
	}
	target, err := datahub.Generate(w, datahub.Spec{
		Name: "eq/target", Task: datahub.TaskNLP,
		Domains: map[string]float64{datahub.DomainNLI: 1},
		Classes: 2, Separability: 1, Noise: 1,
	}, datahub.Sizes{Train: 10, Val: 5, Test: 5})
	if err != nil {
		t.Fatal(err)
	}

	scorer := stubScorer{scores: map[string]float64{"A": 0.2, "C": 0.8}}
	opts := Options{K: 6, SimilarityK: 2, Threshold: 0.01, Scorer: scorer}
	res, err := CoarseRecall(m, repo, target, opts, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Clustering: {A,B} and {C,D} non-singleton; E, F singletons.
	if got := len(res.Clustering.NonSingletons()); got != 2 {
		t.Fatalf("non-singleton clusters %d", got)
	}
	if got := res.Clustering.K - len(res.Clustering.NonSingletons()); got != 2 {
		t.Fatalf("singletons %d", got)
	}
	// Representatives: equal averages inside {A,B} keep the first (A);
	// same for {C,D}.
	if res.ScoredModels != 2 {
		t.Fatalf("scored %d representatives", res.ScoredModels)
	}

	// Normalized proxy: A-cluster raw 0.2 -> 0, C-cluster raw 0.8 -> 1.
	if res.ProxyScores["A"] != 0 || res.ProxyScores["B"] != 0 {
		t.Fatalf("A-cluster proxy %v/%v", res.ProxyScores["A"], res.ProxyScores["B"])
	}
	if res.ProxyScores["C"] != 1 || res.ProxyScores["D"] != 1 {
		t.Fatalf("C-cluster proxy %v/%v", res.ProxyScores["C"], res.ProxyScores["D"])
	}

	// Eq. 3 for members: recall = avgAcc * proxy.
	avgC := numeric.Mean(vecs[2])
	if got := res.RecallScores["C"]; math.Abs(got-avgC*1.0) > 1e-12 {
		t.Fatalf("Eq.3 for C: got %v want %v", got, avgC)
	}
	if res.RecallScores["A"] != 0 {
		t.Fatalf("Eq.3 for A: got %v want 0", res.RecallScores["A"])
	}

	// Eq. 4 for singleton E: avg over representatives of sim * proxy.
	dist := cluster.TopKDistance(2)
	simEA := 1 - dist(vecs[4], vecs[0])
	simEC := 1 - dist(vecs[4], vecs[2])
	if simEA < 0 {
		simEA = 0
	}
	if simEC < 0 {
		simEC = 0
	}
	wantProxyE := (simEA*0 + simEC*1) / 2
	if got := res.ProxyScores["E"]; math.Abs(got-wantProxyE) > 1e-12 {
		t.Fatalf("Eq.4 proxy for E: got %v want %v", got, wantProxyE)
	}
	wantRecallE := numeric.Mean(vecs[4]) * wantProxyE
	if got := res.RecallScores["E"]; math.Abs(got-wantRecallE) > 1e-12 {
		t.Fatalf("Eq.4 recall for E: got %v want %v", got, wantRecallE)
	}
}

// TestRecallScoreMonotoneInPrior: with a constant proxy, the recall order
// must reduce to the benchmark-average prior (Eq. 2's acc term).
func TestRecallScoreMonotoneInPrior(t *testing.T) {
	w := synth.NewWorld(42)
	names := []string{"hi", "mid", "lo", "hi2", "mid2", "lo2"}
	vecs := [][]float64{
		{0.9, 0.9}, {0.6, 0.6}, {0.3, 0.3},
		{0.9, 0.9}, {0.6, 0.6}, {0.3, 0.3},
	}
	m := handMatrix(t, names, vecs, []string{"d1", "d2"})
	var specs []modelhub.Spec
	for _, n := range names {
		specs = append(specs, modelhub.Spec{
			Name: n, Task: datahub.TaskNLP, Arch: "bert", Params: 1,
			Capability: 0.5, SourceClasses: 2,
		})
	}
	repo, err := modelhub.NewRepository(w, datahub.TaskNLP, specs)
	if err != nil {
		t.Fatal(err)
	}
	target, err := datahub.Generate(w, datahub.Spec{
		Name: "mono/target", Task: datahub.TaskNLP,
		Domains: map[string]float64{datahub.DomainNLI: 1},
		Classes: 2, Separability: 1, Noise: 1,
	}, datahub.Sizes{Train: 10, Val: 5, Test: 5})
	if err != nil {
		t.Fatal(err)
	}
	scorer := stubScorer{scores: map[string]float64{"hi": 0.5, "mid": 0.5, "lo": 0.5}}
	res, err := CoarseRecall(m, repo, target, Options{K: 6, SimilarityK: 1, Threshold: 0.01, Scorer: scorer}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// constant proxy (normalized to 0.5 everywhere) makes recall order
	// follow avg accuracy: the two "hi" models must lead.
	lead := map[string]bool{res.Recalled[0]: true, res.Recalled[1]: true}
	if !lead["hi"] || !lead["hi2"] {
		t.Fatalf("prior ordering violated: %v", res.Recalled)
	}
}

var _ proxy.Scorer = stubScorer{} // interface conformance
