package proxy

import (
	"math"
	"testing"
	"testing/quick"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/synth"
)

// fixture builds one in-domain and one foreign model plus a target dataset.
func fixture(t *testing.T) (aligned, foreign *modelhub.Model, d *datahub.Dataset) {
	t.Helper()
	w := synth.NewWorld(42)
	var err error
	aligned, err = modelhub.Materialize(w, modelhub.Spec{
		Name: "proxy/aligned", Task: datahub.TaskNLP, Arch: "bert", Params: 110,
		Domains:    map[string]float64{datahub.DomainSentiment: 1},
		Capability: 0.6, SourceClasses: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err = modelhub.Materialize(w, modelhub.Spec{
		Name: "proxy/foreign", Task: datahub.TaskNLP, Arch: "bert", Params: 110,
		Domains:    map[string]float64{datahub.DomainMultilingual: 1},
		Capability: 0.6, SourceClasses: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err = datahub.Generate(w, datahub.Spec{
		Name: "proxy/ds", Task: datahub.TaskNLP,
		Domains: map[string]float64{datahub.DomainSentiment: 1},
		Classes: 3, Separability: 2, Noise: 1.8,
	}, datahub.Sizes{Train: 200, Val: 50, Test: 50})
	if err != nil {
		t.Fatal(err)
	}
	return aligned, foreign, d
}

func TestLEEPNonPositive(t *testing.T) {
	aligned, _, d := fixture(t)
	s, err := LEEP{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	if s > 1e-9 || math.IsNaN(s) {
		t.Fatalf("LEEP = %v, must be a log-likelihood <= 0", s)
	}
}

func TestLEEPPrefersAligned(t *testing.T) {
	aligned, foreign, d := fixture(t)
	sa, err := LEEP{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := LEEP{}.Score(foreign, d)
	if err != nil {
		t.Fatal(err)
	}
	if sa <= sf {
		t.Fatalf("aligned LEEP %v not above foreign %v", sa, sf)
	}
}

func TestCalibratedLEEPPrefersAligned(t *testing.T) {
	aligned, foreign, d := fixture(t)
	sa, err := CalibratedLEEP{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := CalibratedLEEP{}.Score(foreign, d)
	if err != nil {
		t.Fatal(err)
	}
	if sa <= sf {
		t.Fatalf("aligned calibrated LEEP %v not above foreign %v", sa, sf)
	}
	// The aligned model's predictions carry label information, so its
	// calibrated score must be clearly positive.
	if sa <= 0 {
		t.Fatalf("aligned calibrated LEEP %v should be positive", sa)
	}
}

func TestCalibratedLEEPDeterministic(t *testing.T) {
	aligned, _, d := fixture(t)
	a, err := CalibratedLEEP{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CalibratedLEEP{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("calibrated LEEP not deterministic")
	}
}

func TestNCEPrefersAligned(t *testing.T) {
	aligned, foreign, d := fixture(t)
	sa, err := NCE{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NCE{}.Score(foreign, d)
	if err != nil {
		t.Fatal(err)
	}
	if sa <= sf {
		t.Fatalf("aligned NCE %v not above foreign %v", sa, sf)
	}
}

func TestKNNRangeAndOrdering(t *testing.T) {
	aligned, foreign, d := fixture(t)
	sa, err := KNN{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := KNN{}.Score(foreign, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{sa, sf} {
		if s < 0 || s > 1 {
			t.Fatalf("kNN accuracy %v outside [0,1]", s)
		}
	}
	if sa <= sf {
		t.Fatalf("aligned kNN %v not above foreign %v", sa, sf)
	}
}

func TestKNNName(t *testing.T) {
	if (KNN{}).Name() != "knn5" {
		t.Fatalf("default kNN name %q", KNN{}.Name())
	}
	if (KNN{K: 3}).Name() != "knn3" {
		t.Fatal("kNN name ignores K")
	}
}

func TestTaskMismatchRejected(t *testing.T) {
	aligned, _, _ := fixture(t)
	w := synth.NewWorld(42)
	cvDS, err := datahub.Generate(w, datahub.CVTargets()[0], datahub.Sizes{Train: 20, Val: 10, Test: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scorer{LEEP{}, CalibratedLEEP{}, NCE{}, KNN{}} {
		if _, err := s.Score(aligned, cvDS); err == nil {
			t.Fatalf("%s accepted task mismatch", s.Name())
		}
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{-2, 0, 2})
	if out[0] != 0 || out[1] != 0.5 || out[2] != 1 {
		t.Fatalf("normalize = %v", out)
	}
	for _, v := range Normalize([]float64{3, 3, 3}) {
		if v != 0.5 {
			t.Fatal("constant scores should map to 0.5")
		}
	}
	if len(Normalize(nil)) != 0 {
		t.Fatal("nil input")
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(raw [9]float64) bool {
		in := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			in[i] = math.Mod(x, 100)
		}
		out := Normalize(in)
		for _, v := range out {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnsemble(t *testing.T) {
	aligned, foreign, d := fixture(t)
	e := Ensemble{Scorers: []Scorer{CalibratedLEEP{}, KNN{}}}
	var scores [2]float64
	for i, m := range []*modelhub.Model{aligned, foreign} {
		s, err := e.Score(m, d)
		if err != nil {
			t.Fatal(err)
		}
		scores[i] = s
	}
	if scores[0] <= scores[1] {
		t.Fatalf("ensemble should prefer aligned: %v", scores)
	}
	if _, err := (Ensemble{}).Score(aligned, d); err == nil {
		t.Fatal("empty ensemble Score accepted")
	}
}

func TestScorerNames(t *testing.T) {
	names := map[string]bool{}
	for _, s := range []Scorer{LEEP{}, CalibratedLEEP{}, NCE{}, KNN{}, Ensemble{}} {
		n := s.Name()
		if n == "" || names[n] {
			t.Fatalf("bad or duplicate scorer name %q", n)
		}
		names[n] = true
	}
}
