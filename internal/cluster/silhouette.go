package cluster

import "twophase/internal/numeric"

// Silhouette returns the mean silhouette coefficient of the clustering
// under dist (Rousseeuw 1987), the metric the paper uses to compare
// clustering quality (Table I, Fig. 6, appendix Table X).
//
// Items in singleton clusters contribute 0, matching the standard
// convention; if every cluster is a singleton the score is 0.
func Silhouette(vecs [][]float64, c Clustering, dist Distance) float64 {
	n := len(vecs)
	if n == 0 || c.K <= 1 {
		return 0
	}
	d := matrix(vecs, dist, 1)
	groups := c.Groups()

	scores := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		own := groups[c.Assign[i]]
		if len(own) <= 1 {
			scores = append(scores, 0)
			continue
		}
		// a(i): mean intra-cluster distance (excluding self)
		var a float64
		for _, j := range own {
			if j != i {
				a += d.At(i, j)
			}
		}
		a /= float64(len(own) - 1)

		// b(i): smallest mean distance to another cluster
		b := -1.0
		for g, members := range groups {
			if g == c.Assign[i] || len(members) == 0 {
				continue
			}
			var s float64
			for _, j := range members {
				s += d.At(i, j)
			}
			s /= float64(len(members))
			if b < 0 || s < b {
				b = s
			}
		}
		if b < 0 {
			scores = append(scores, 0)
			continue
		}
		den := a
		if b > den {
			den = b
		}
		if den == 0 {
			scores = append(scores, 0)
			continue
		}
		scores = append(scores, (b-a)/den)
	}
	return numeric.Mean(scores)
}

// RandomClustering assigns n items uniformly at random to k clusters —
// the baseline of Fig. 6's clustering-quality comparison.
func RandomClustering(n, k int, rng *numeric.RNG) Clustering {
	if k < 1 {
		k = 1
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = rng.Intn(k)
	}
	// compact ids in case some cluster drew no members
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
