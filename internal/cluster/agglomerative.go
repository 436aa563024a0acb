package cluster

import (
	"math"
	"sync/atomic"

	"twophase/internal/numeric"
)

// agglomerativePasses counts Agglomerative invocations in this process.
// The offline pipeline persists its clustering as a stage artifact, and
// warm-start tests use this counter to prove a rehydrated framework never
// re-clusters the repository.
var agglomerativePasses atomic.Int64

// Passes reports how many agglomerative clustering passes this process
// has executed so far.
func Passes() int64 { return agglomerativePasses.Load() }

// Clustering is an assignment of n items to K clusters, with cluster ids
// in [0, K).
type Clustering struct {
	Assign []int
	K      int
}

// Groups returns, for each cluster id, the member indices in ascending
// order.
func (c Clustering) Groups() [][]int {
	groups := make([][]int, c.K)
	for i, a := range c.Assign {
		groups[a] = append(groups[a], i)
	}
	return groups
}

// NonSingletons returns the groups with more than one member.
func (c Clustering) NonSingletons() [][]int {
	var out [][]int
	for _, g := range c.Groups() {
		if len(g) > 1 {
			out = append(out, g)
		}
	}
	return out
}

// Agglomerative performs average-linkage hierarchical clustering, merging
// the closest pair of clusters while their linkage stays below threshold.
// Setting maxClusters > 0 additionally keeps merging (ignoring threshold)
// until at most maxClusters remain; pass 0 to rely on the threshold alone.
//
// The O(n²) pairwise-distance precompute fans out across a worker budget
// (fanout's width: 1 is serial). The merge loop itself stays serial — each
// merge decision depends on the previous one — but it only reads the
// precomputed matrix, so the clustering is bit-identical for every worker
// count.
func Agglomerative(vecs [][]float64, dist Distance, threshold float64, maxClusters, workers int) Clustering {
	agglomerativePasses.Add(1)
	n := len(vecs)
	if n == 0 {
		return Clustering{}
	}
	d := matrix(vecs, dist, workers)

	// active clusters as member lists
	members := make([][]int, n)
	for i := range members {
		members[i] = []int{i}
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	count := n

	linkage := func(a, b []int) float64 {
		var s float64
		for _, i := range a {
			for _, j := range b {
				s += d.At(i, j)
			}
		}
		return s / float64(len(a)*len(b))
	}

	for count > 1 {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if l := linkage(members[i], members[j]); l < best {
					bi, bj, best = i, j, l
				}
			}
		}
		overThreshold := best > threshold
		underCap := maxClusters <= 0 || count <= maxClusters
		if overThreshold && underCap {
			break
		}
		members[bi] = append(members[bi], members[bj]...)
		active[bj] = false
		count--
	}

	assign := make([]int, n)
	k := 0
	for i := 0; i < n; i++ {
		if !active[i] {
			continue
		}
		for _, m := range members[i] {
			assign[m] = k
		}
		k++
	}
	return Clustering{Assign: assign, K: k}
}

// KMeans clusters vecs into k groups with Lloyd's algorithm and k-means++
// initialization. Distances are Euclidean (means only exist in L2). The
// rng makes initialization deterministic; iters bounds the Lloyd passes.
func KMeans(vecs [][]float64, k int, rng *numeric.RNG, iters int) Clustering {
	n := len(vecs)
	if n == 0 {
		return Clustering{}
	}
	if k > n {
		k = n
	}
	if k <= 0 {
		k = 1
	}
	dim := len(vecs[0])

	// k-means++ seeding
	centers := make([][]float64, 0, k)
	centers = append(centers, numeric.Clone(vecs[rng.Intn(n)]))
	minDist := make([]float64, n)
	for len(centers) < k {
		var total float64
		for i, v := range vecs {
			best := math.Inf(1)
			for _, c := range centers {
				if d := numeric.EuclideanDistance(v, c); d < best {
					best = d
				}
			}
			minDist[i] = float64(best * best)
			total += minDist[i]
		}
		if total == 0 {
			// all remaining points coincide with existing centers
			centers = append(centers, numeric.Clone(vecs[rng.Intn(n)]))
			continue
		}
		u := rng.Float64() * total
		var acc float64
		pick := n - 1
		for i, w := range minDist {
			acc += w
			if u < acc {
				pick = i
				break
			}
		}
		centers = append(centers, numeric.Clone(vecs[pick]))
	}

	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i, v := range vecs {
			best, bestD := 0, math.Inf(1)
			for c, center := range centers {
				if d := numeric.EuclideanDistance(v, center); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// recompute centers
		counts := make([]int, k)
		for c := range centers {
			for j := 0; j < dim; j++ {
				centers[c][j] = 0
			}
		}
		for i, v := range vecs {
			c := assign[i]
			counts[c]++
			numeric.AddScaled(centers[c], 1, v)
		}
		for c := range centers {
			if counts[c] == 0 {
				// re-seed an empty cluster at a random point
				copy(centers[c], vecs[rng.Intn(n)])
				continue
			}
			numeric.Scale(centers[c], 1/float64(counts[c]))
		}
		if !changed && it > 0 {
			break
		}
	}

	// compact cluster ids (drop empties)
	remap := map[int]int{}
	for _, a := range assign {
		if _, ok := remap[a]; !ok {
			remap[a] = len(remap)
		}
	}
	for i, a := range assign {
		assign[i] = remap[a]
	}
	return Clustering{Assign: assign, K: len(remap)}
}
