package numeric

import (
	"math"
	"testing"
)

func cloneMatrix(m *Matrix) *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// spdFixture builds a deterministic SPD matrix A = GᵀG + I.
func spdFixture(n int) *Matrix {
	rng := NewRNG(13)
	g := RandomMatrix(rng, n, n, 1.0)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += g.At(k, i) * g.At(k, j)
			}
			a.Set(i, j, s)
		}
		a.Set(i, i, a.At(i, i)+1)
	}
	return a
}

func TestCholeskyFactorReconstructs(t *testing.T) {
	a := spdFixture(12)
	l := cloneMatrix(a)
	if err := CholeskyFactor(l); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if j > i && l.At(i, j) != 0 {
				t.Fatalf("upper triangle (%d,%d) = %v, want 0", i, j, l.At(i, j))
			}
			var s float64
			for k := 0; k <= i && k <= j; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			if diff := math.Abs(s - a.At(i, j)); diff > 1e-9 {
				t.Fatalf("L·Lᵀ diverges from A at (%d,%d) by %g", i, j, diff)
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	a := spdFixture(9)
	rng := NewRNG(29)
	want := rng.NormVec(a.Rows)
	b := make([]float64, a.Rows)
	a.MulVec(want, b)

	l := cloneMatrix(a)
	if err := CholeskyFactor(l); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, a.Rows)
	CholeskySolve(l, b, got)
	for i := range want {
		if diff := math.Abs(got[i] - want[i]); diff > 1e-8 {
			t.Fatalf("solution diverges at %d by %g", i, diff)
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	if err := CholeskyFactor(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square matrix factored without error")
	}
	neg := NewMatrix(2, 2)
	neg.Set(0, 0, -1)
	neg.Set(1, 1, 1)
	if err := CholeskyFactor(neg); err == nil {
		t.Fatal("negative-definite matrix factored without error")
	}
	zero := NewMatrix(3, 3) // all-zero: first pivot is 0
	if err := CholeskyFactor(zero); err == nil {
		t.Fatal("singular matrix factored without error")
	}
}

// TestCholeskyBitReproducible pins the determinism contract: repeated
// factor+solve over identical inputs produces identical bits.
func TestCholeskyBitReproducible(t *testing.T) {
	a := spdFixture(16)
	rng := NewRNG(31)
	b := rng.NormVec(a.Rows)
	run := func() []float64 {
		l := cloneMatrix(a)
		if err := CholeskyFactor(l); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, a.Rows)
		CholeskySolve(l, b, out)
		return out
	}
	first := run()
	for rep := 0; rep < 3; rep++ {
		again := run()
		for i := range first {
			if math.Float64bits(first[i]) != math.Float64bits(again[i]) {
				t.Fatalf("solution bit-diverged at %d on repeat %d", i, rep)
			}
		}
	}
}
