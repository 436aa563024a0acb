package recall

import (
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/perfmatrix"
	"twophase/internal/proxy"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

// fixture builds a 10-model repository, a 6-benchmark matrix, and a target
// dataset — small enough to run in tens of milliseconds.
func fixture(t *testing.T) (*perfmatrix.Matrix, *modelhub.Repository, *datahub.Dataset) {
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
	target, err := datahub.Generate(w, datahub.NLPTargets()[0], datahub.Sizes{Train: 80, Val: 50, Test: 80})
	if err != nil {
		t.Fatal(err)
	}
	return m, repo, target
}

func TestCoarseRecallBasics(t *testing.T) {
	m, repo, target := fixture(t)
	var ledger trainer.Ledger
	opts := Options{K: 4}
	res, err := CoarseRecall(m, repo, target, opts, &ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recalled) != 4 {
		t.Fatalf("recalled %d models", len(res.Recalled))
	}
	if len(res.RecallScores) != repo.Len() || len(res.ProxyScores) != repo.Len() {
		t.Fatal("scores must cover every model")
	}
	if res.ScoredModels <= 0 || res.ScoredModels > repo.Len() {
		t.Fatalf("scored %d models", res.ScoredModels)
	}
	if got := ledger.Total(); got != 0.5*float64(res.ScoredModels) {
		t.Fatalf("ledger %v, want %v", got, 0.5*float64(res.ScoredModels))
	}
	// recalled must be ordered by descending recall score
	for i := 1; i < len(res.Recalled); i++ {
		if res.RecallScores[res.Recalled[i-1]] < res.RecallScores[res.Recalled[i]] {
			t.Fatal("recalled not sorted by score")
		}
	}
}

func TestCoarseRecallDeterministic(t *testing.T) {
	m, repo, target := fixture(t)
	a, err := CoarseRecall(m, repo, target, Options{K: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CoarseRecall(m, repo, target, Options{K: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Recalled {
		if a.Recalled[i] != b.Recalled[i] {
			t.Fatal("recall not deterministic")
		}
	}
}

func TestCoarseRecallScoresInRange(t *testing.T) {
	m, repo, target := fixture(t)
	res, err := CoarseRecall(m, repo, target, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range res.ProxyScores {
		if p < 0 || p > 1 {
			t.Fatalf("proxy score %v for %s outside [0,1]", p, name)
		}
	}
	for name, s := range res.RecallScores {
		if s < 0 || s > 1 {
			t.Fatalf("recall score %v for %s outside [0,1]", s, name)
		}
	}
}

func TestRepresentativeHasBestAverage(t *testing.T) {
	m, repo, target := fixture(t)
	res, err := CoarseRecall(m, repo, target, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := res.Clustering.Groups()
	for cid, rep := range res.Representatives {
		if len(groups[cid]) < 2 {
			continue
		}
		repAvg, err := m.AvgAcc(rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range groups[cid] {
			avg, err := m.AvgAcc(m.Models[i])
			if err != nil {
				t.Fatal(err)
			}
			if avg > repAvg+1e-12 {
				t.Fatalf("representative %s (%.3f) not the best of its cluster (%s has %.3f)",
					rep, repAvg, m.Models[i], avg)
			}
		}
	}
}

func TestSingletonPropagation(t *testing.T) {
	m, repo, target := fixture(t)
	res, err := CoarseRecall(m, repo, target, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := res.Clustering.Groups()
	var singletons []int
	for _, g := range groups {
		if len(g) == 1 {
			singletons = append(singletons, g[0])
		}
	}
	if len(singletons) == 0 {
		t.Skip("fixture produced no singleton clusters")
	}
	// singleton proxy scores must lie within the span of representative
	// scores (they are similarity-weighted averages)
	var lo, hi float64 = 1, 0
	for cid := range res.Representatives {
		if len(groups[cid]) < 2 {
			continue
		}
		p := res.ProxyScores[res.Representatives[cid]]
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	for _, i := range singletons {
		p := res.ProxyScores[m.Models[i]]
		if p > hi+1e-9 {
			t.Fatalf("singleton %s proxy %v above max representative %v", m.Models[i], p, hi)
		}
	}
}

func TestCoarseRecallKOversized(t *testing.T) {
	m, repo, target := fixture(t)
	res, err := CoarseRecall(m, repo, target, Options{K: 999}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recalled) != repo.Len() {
		t.Fatalf("oversized K recalled %d", len(res.Recalled))
	}
}

func TestCoarseRecallEmptyMatrix(t *testing.T) {
	_, repo, target := fixture(t)
	empty := &perfmatrix.Matrix{}
	if _, err := CoarseRecall(empty, repo, target, Options{}, nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
}

func TestCoarseRecallAlternativeScorer(t *testing.T) {
	m, repo, target := fixture(t)
	res, err := CoarseRecall(m, repo, target, Options{K: 3, Scorer: proxy.KNN{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recalled) != 3 {
		t.Fatal("kNN-scored recall failed")
	}
}

func TestRandomRecall(t *testing.T) {
	m, _, _ := fixture(t)
	rng := numeric.NewNamedRNG(1, "rr")
	got := RandomRecall(m, 5, rng)
	if len(got) != 5 {
		t.Fatalf("random recall returned %d", len(got))
	}
	seen := map[string]bool{}
	for _, n := range got {
		if seen[n] {
			t.Fatal("random recall repeated a model")
		}
		seen[n] = true
	}
	if len(RandomRecall(m, 999, rng)) != len(m.Models) {
		t.Fatal("oversized random recall")
	}
}

func TestBruteForceScores(t *testing.T) {
	m, repo, target := fixture(t)
	var ledger trainer.Ledger
	scores, err := BruteForceScores(repo, target, nil, &ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != repo.Len() {
		t.Fatalf("scores %d", len(scores))
	}
	if ledger.Total() != 0.5*float64(repo.Len()) {
		t.Fatalf("ledger %v", ledger.Total())
	}
	for n, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score %v for %s", s, n)
		}
	}
	_ = m
}
