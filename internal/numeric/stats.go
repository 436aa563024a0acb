package numeric

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Max returns the largest element of v; it panics on an empty slice.
func Max(v []float64) float64 { return v[ArgMax(v)] }

// Min returns the smallest element of v; it panics on an empty slice.
func Min(v []float64) float64 { return v[argMin(v)] }

// ArgSortDesc returns the indices of v ordered by descending value.
// Ties break by ascending index so the order is deterministic.
func ArgSortDesc(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	return idx
}

// ArgSortAsc returns the indices of v ordered by ascending value.
// Ties break by ascending index so the order is deterministic.
func ArgSortAsc(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	return idx
}

// PearsonCorrelation returns the correlation coefficient of paired samples
// x and y, or 0 when either side has no variance. It panics on length
// mismatch.
func PearsonCorrelation(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("numeric: PearsonCorrelation length mismatch")
	}
	if len(x) == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
