package numeric

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestRNGDistinctSeeds(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical values", same)
	}
}

func TestNamedRNGSeparatesStreams(t *testing.T) {
	a := NewNamedRNG(42, "model", "bert")
	b := NewNamedRNG(42, "model", "roberta")
	if a.Uint64() == b.Uint64() {
		t.Fatal("streams for distinct names collided")
	}
	// ("ab","c") must differ from ("a","bc")
	x := NewNamedRNG(42, "ab", "c")
	y := NewNamedRNG(42, "a", "bc")
	if x.Uint64() == y.Uint64() {
		t.Fatal("part-boundary ambiguity: (ab,c) == (a,bc)")
	}
}

func TestNamedRNGReproducible(t *testing.T) {
	a := NewNamedRNG(42, "dataset", "mnli")
	b := NewNamedRNG(42, "dataset", "mnli")
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("named streams not reproducible")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 returned %v outside [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v deviates from 0.5", mean)
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestNormVecLength(t *testing.T) {
	r := NewRNG(1)
	if v := r.NormVec(17); len(v) != 17 {
		t.Fatalf("NormVec length %d", len(v))
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := NewRNG(21)
	counts := make([]int, 5)
	const trials = 20000
	for i := 0; i < trials; i++ {
		counts[r.Perm(5)[0]]++
	}
	for i, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-0.2) > 0.02 {
			t.Fatalf("position %d frequency %v far from 0.2", i, frac)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := NewRNG(2)
	data := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), data...)
	r.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	// multiset preserved
	counts := map[int]int{}
	for _, v := range data {
		counts[v]++
	}
	for _, v := range orig {
		counts[v]--
	}
	for _, c := range counts {
		if c != 0 {
			t.Fatalf("shuffle changed multiset: %v", data)
		}
	}
}

// TestNamedRNGMatchesNewNamedRNG pins the value-returning constructor to
// the heap-allocating one: identical streams for identical inputs.
func TestNamedRNGMatchesNewNamedRNG(t *testing.T) {
	cases := [][]string{
		{},
		{""},
		{"model-3"},
		{"model-3", "bench-1", "offline-matrix"},
		{"ab", "c"},
		{"a", "bc"},
	}
	for _, parts := range cases {
		a := NewNamedRNG(1234, parts...)
		b := NamedRNG(1234, parts...)
		for i := 0; i < 16; i++ {
			if av, bv := a.Uint64(), b.Uint64(); av != bv {
				t.Fatalf("parts %q draw %d: NamedRNG %x, NewNamedRNG %x", parts, i, bv, av)
			}
		}
	}
	if x, y := NamedRNG(5, "ab", "c"), NamedRNG(5, "a", "bc"); x.Uint64() == y.Uint64() {
		t.Fatal("separator failed: (ab,c) and (a,bc) collide")
	}
}
