package synth

import (
	"math"
	"testing"

	"twophase/internal/numeric"
)

func TestDomainBasisOrthonormal(t *testing.T) {
	w := NewWorld(42)
	b := w.DomainBasis("nli")
	if b.Rows != DomainRank || b.Cols != InputDim {
		t.Fatalf("basis shape %dx%d", b.Rows, b.Cols)
	}
	for i := 0; i < b.Rows; i++ {
		for j := 0; j <= i; j++ {
			d := numeric.Dot(b.Row(i), b.Row(j))
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(d-want) > 1e-9 {
				t.Fatalf("basis rows %d,%d dot %v", i, j, d)
			}
		}
	}
}

func TestDomainBasisCachedAndDeterministic(t *testing.T) {
	w := NewWorld(42)
	a, b := w.DomainBasis("sentiment"), w.DomainBasis("sentiment")
	if a != b {
		t.Fatal("basis not cached (pointer changed)")
	}
	w2 := NewWorld(42)
	c := w2.DomainBasis("sentiment")
	for i, v := range a.Data {
		if c.Data[i] != v {
			t.Fatal("same seed produced different basis")
		}
	}
	w3 := NewWorld(43)
	d := w3.DomainBasis("sentiment")
	same := true
	for i, v := range a.Data {
		if d.Data[i] != v {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical basis")
	}
}

func TestDistinctDomainsNearOrthogonal(t *testing.T) {
	w := NewWorld(42)
	a, b := w.DomainBasis("nli"), w.DomainBasis("food")
	// random low-dim subspaces of R^32 should have small mutual coherence
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			if d := math.Abs(numeric.Dot(a.Row(i), b.Row(j))); d > 0.75 {
				t.Fatalf("distinct domains share direction (|dot|=%v)", d)
			}
		}
	}
}

func TestMixtureDirectionsUnitNorm(t *testing.T) {
	w := NewWorld(42)
	rng := numeric.NewNamedRNG(42, "test-mix")
	dirs := w.MixtureDirections(map[string]float64{"nli": 1}, 5, rng)
	for i := 0; i < dirs.Rows; i++ {
		if n := numeric.Norm2(dirs.Row(i)); math.Abs(n-1) > 1e-9 {
			t.Fatalf("direction %d norm %v", i, n)
		}
	}
}

func TestMixtureDirectionsInSpan(t *testing.T) {
	w := NewWorld(42)
	rng := numeric.NewNamedRNG(42, "test-span")
	dirs := w.MixtureDirections(map[string]float64{"nli": 1}, 4, rng)
	basis := w.DomainBasis("nli")
	// each direction must lie (almost) entirely inside the basis span
	for i := 0; i < dirs.Rows; i++ {
		var captured float64
		for j := 0; j < basis.Rows; j++ {
			p := numeric.Dot(dirs.Row(i), basis.Row(j))
			captured += p * p
		}
		if captured < 0.999 {
			t.Fatalf("direction %d only %.3f inside domain span", i, captured)
		}
	}
}

func TestMixtureDirectionsEmptyMixture(t *testing.T) {
	w := NewWorld(42)
	rng := numeric.NewNamedRNG(42, "test-empty")
	dirs := w.MixtureDirections(nil, 3, rng)
	for i := 0; i < dirs.Rows; i++ {
		if numeric.Norm2(dirs.Row(i)) != 0 {
			t.Fatal("empty mixture should give zero directions")
		}
	}
}

func TestNormalizeMixture(t *testing.T) {
	m := normalizeMixture(map[string]float64{"a": 2, "b": 6, "c": -1})
	if math.Abs(m["a"]-0.25) > 1e-12 || math.Abs(m["b"]-0.75) > 1e-12 {
		t.Fatalf("normalized = %v", m)
	}
	if _, ok := m["c"]; ok {
		t.Fatal("negative weight kept")
	}
	if len(normalizeMixture(nil)) != 0 {
		t.Fatal("nil mixture should be empty")
	}
}

func TestWithCore(t *testing.T) {
	m := WithCore(map[string]float64{"nli": 0.75}, "nlp", 0.25)
	var total float64
	for _, v := range m {
		total += v
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("mixture sums to %v", total)
	}
	if m[coreDomain("nlp")] <= 0 {
		t.Fatal("core domain missing")
	}
	// input must not be mutated
	orig := map[string]float64{"nli": 0.75}
	_ = WithCore(orig, "nlp", 0.25)
	if len(orig) != 1 {
		t.Fatal("WithCore mutated input")
	}
}

func TestCoreDomainNames(t *testing.T) {
	if coreDomain("nlp") == coreDomain("cv") {
		t.Fatal("task cores must differ")
	}
}

func TestWorldConcurrentBasisAccess(t *testing.T) {
	w := NewWorld(1)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				w.DomainBasis("shared")
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
