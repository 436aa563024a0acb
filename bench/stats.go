package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile picks the p-th percentile (0..100) of an ascending sample by
// linear interpolation between closest ranks. An empty sample has none.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(len(asc)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return asc[lo] + (asc[hi]-asc[lo])*(rank-float64(lo))
}

// median of an unsorted sample.
func median(v []float64) float64 { return percentile(sorted(v), 50) }

// tailPercentile is the highest percentile, capped at 99, that still has at
// least ten samples beyond it: a tail read off fewer samples is one request's
// luck, not a property of the system.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return math.Min(99, 100*(1-10/float64(n)))
}

// pairedDeltaMedian is the median of a[i]-b[i]: the cost of the layer that
// separates two rungs, with the request-to-request variation both share
// cancelled pair by pair.
func pairedDeltaMedian(a, b []float64) float64 {
	n := min(len(a), len(b))
	d := make([]float64, n)
	for i := range d {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// spread is the distance between the first and third quartile as a share of
// the median: the run-to-run noise a difference has to exceed. Quartiles
// follow Python's statistics.quantiles(v, n=4), the driver's method.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	asc := sorted(v)
	q := func(k int) float64 {
		// Exclusive method: position k(n+1)/4, 1-based, clamped to the sample.
		pos := float64(k*(len(asc)+1)) / 4
		j := int(math.Min(math.Max(math.Floor(pos), 1), float64(len(asc)-1)))
		return asc[j-1] + (asc[j]-asc[j-1])*(pos-float64(j))
	}
	med := percentile(asc, 50)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// sameCount reports whether a count repeated exactly across runs.
func sameCount(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}
