package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(v) != 5 {
		t.Fatalf("mean = %v", Mean(v))
	}
}

func TestMaxMin(t *testing.T) {
	v := []float64{3, -1, 7, 2}
	if Max(v) != 7 || Min(v) != -1 {
		t.Fatalf("Max/Min = %v/%v", Max(v), Min(v))
	}
}

func TestArgSortDesc(t *testing.T) {
	v := []float64{0.3, 0.9, 0.1, 0.9}
	idx := ArgSortDesc(v)
	if idx[0] != 1 || idx[1] != 3 { // stable: first 0.9 first
		t.Fatalf("ArgSortDesc = %v", idx)
	}
	for i := 1; i < len(idx); i++ {
		if v[idx[i-1]] < v[idx[i]] {
			t.Fatalf("not descending: %v", idx)
		}
	}
}

func TestArgSortAscProperty(t *testing.T) {
	f := func(raw [9]float64) bool {
		a := sanitize(raw[:])
		idx := ArgSortAsc(a)
		for i := 1; i < len(idx); i++ {
			if a[idx[i-1]] > a[idx[i]] {
				return false
			}
		}
		// idx must be a permutation
		seen := make([]bool, len(idx))
		for _, j := range idx {
			if j < 0 || j >= len(idx) || seen[j] {
				return false
			}
			seen[j] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := PearsonCorrelation(x, []float64{2, 4, 6, 8}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("perfect correlation = %v", got)
	}
	if got := PearsonCorrelation(x, []float64{8, 6, 4, 2}); !almostEq(got, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	if got := PearsonCorrelation(x, []float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant side should give 0, got %v", got)
	}
}

func TestPearsonBoundsProperty(t *testing.T) {
	f := func(a, b [8]float64) bool {
		c := PearsonCorrelation(sanitize(a[:]), sanitize(b[:]))
		return !math.IsNaN(c) && c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
