package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"twophase/internal/numeric"
)

// blobs generates three well-separated 2-D clusters of n points each.
func blobs(n int) ([][]float64, []int) {
	rng := numeric.NewNamedRNG(42, "blobs")
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	var vecs [][]float64
	var labels []int
	for c, center := range centers {
		for i := 0; i < n; i++ {
			vecs = append(vecs, []float64{
				center[0] + rng.Norm()*0.5,
				center[1] + rng.Norm()*0.5,
			})
			labels = append(labels, c)
		}
	}
	return vecs, labels
}

// agree checks that a clustering matches reference labels up to renaming.
func agree(assign, labels []int) bool {
	mapping := map[int]int{}
	for i, a := range assign {
		if want, ok := mapping[a]; ok {
			if want != labels[i] {
				return false
			}
		} else {
			mapping[a] = labels[i]
		}
	}
	// mapping must be injective
	seen := map[int]bool{}
	for _, v := range mapping {
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestTopKDistanceBasics(t *testing.T) {
	d := TopKDistance(2)
	a := []float64{0.9, 0.5, 0.5, 0.5}
	b := []float64{0.5, 0.5, 0.5, 0.3}
	// diffs: 0.4, 0, 0, 0.2 -> top2 mean = 0.3
	if got := d(a, b); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("top-2 distance %v", got)
	}
	if d(a, a) != 0 {
		t.Fatal("self distance not 0")
	}
}

func TestTopKDistanceOversizedK(t *testing.T) {
	d := TopKDistance(99)
	a, b := []float64{1, 0}, []float64{0, 0}
	if got := d(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("oversized k distance %v", got)
	}
}

func TestTopKDistanceProperties(t *testing.T) {
	d := TopKDistance(3)
	f := func(a, b [6]float64) bool {
		x, y := clip(a[:]), clip(b[:])
		dd := d(x, y)
		return dd >= 0 && math.Abs(dd-d(y, x)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clip(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[i] = math.Mod(x, 1)
	}
	return out
}

func TestTopKDistancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for k<=0")
		}
	}()
	TopKDistance(0)
}

func TestAgglomerativeRecoversBlobs(t *testing.T) {
	vecs, labels := blobs(10)
	cl := Agglomerative(vecs, Euclidean, 3.0, 0, 1)
	if cl.K != 3 {
		t.Fatalf("found %d clusters, want 3", cl.K)
	}
	if !agree(cl.Assign, labels) {
		t.Fatal("clusters do not match blobs")
	}
}

func TestAgglomerativeThresholdMonotone(t *testing.T) {
	vecs, _ := blobs(8)
	prev := len(vecs) + 1
	for _, th := range []float64{0.1, 1, 5, 50} {
		cl := Agglomerative(vecs, Euclidean, th, 0, 1)
		if cl.K > prev {
			t.Fatalf("cluster count increased as threshold grew")
		}
		prev = cl.K
	}
}

func TestAgglomerativeMaxClusters(t *testing.T) {
	vecs, _ := blobs(5)
	cl := Agglomerative(vecs, Euclidean, 0, 2, 1)
	if cl.K != 2 {
		t.Fatalf("maxClusters not honoured: K=%d", cl.K)
	}
}

func TestAgglomerativeEmptyAndSingle(t *testing.T) {
	if cl := Agglomerative(nil, Euclidean, 1, 0, 1); cl.K != 0 {
		t.Fatal("empty input should give empty clustering")
	}
	cl := Agglomerative([][]float64{{1, 2}}, Euclidean, 1, 0, 1)
	if cl.K != 1 || cl.Assign[0] != 0 {
		t.Fatal("single input should give one cluster")
	}
}

func TestClusteringGroupsAndSingletons(t *testing.T) {
	cl := Clustering{Assign: []int{0, 1, 0, 2}, K: 3}
	groups := cl.Groups()
	if len(groups) != 3 || len(groups[0]) != 2 {
		t.Fatalf("groups %v", groups)
	}
	ns := cl.NonSingletons()
	if len(ns) != 1 || ns[0][0] != 0 || ns[0][1] != 2 {
		t.Fatalf("non-singletons %v", ns)
	}
}

func TestKMeansRecoversBlobs(t *testing.T) {
	vecs, labels := blobs(10)
	cl := KMeans(vecs, 3, numeric.NewNamedRNG(42, "kmeans"), 100)
	if cl.K != 3 {
		t.Fatalf("kmeans K=%d", cl.K)
	}
	if !agree(cl.Assign, labels) {
		t.Fatal("kmeans did not recover blobs")
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if cl := KMeans(nil, 3, numeric.NewNamedRNG(1, "a"), 10); cl.K != 0 {
		t.Fatal("empty input")
	}
	vecs := [][]float64{{1}, {1}, {1}}
	cl := KMeans(vecs, 5, numeric.NewNamedRNG(1, "b"), 10)
	if cl.K < 1 {
		t.Fatal("identical points should still cluster")
	}
	for _, a := range cl.Assign {
		if a < 0 || a >= cl.K {
			t.Fatalf("assignment %d outside [0,%d)", a, cl.K)
		}
	}
}

func TestKMeansDeterministicGivenRNG(t *testing.T) {
	vecs, _ := blobs(6)
	a := KMeans(vecs, 3, numeric.NewNamedRNG(7, "det"), 50)
	b := KMeans(vecs, 3, numeric.NewNamedRNG(7, "det"), 50)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same RNG stream produced different clusterings")
		}
	}
}

func TestSilhouetteSeparatedVsRandom(t *testing.T) {
	vecs, labels := blobs(10)
	good := Clustering{Assign: labels, K: 3}
	sGood := Silhouette(vecs, good, Euclidean)
	if sGood < 0.8 {
		t.Fatalf("well-separated silhouette %v too low", sGood)
	}
	rng := numeric.NewNamedRNG(42, "sil-random")
	sRand := Silhouette(vecs, RandomClustering(len(vecs), 3, rng), Euclidean)
	if sGood <= sRand {
		t.Fatalf("good %v not above random %v", sGood, sRand)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	vecs, _ := blobs(3)
	if s := Silhouette(vecs, Clustering{Assign: make([]int, len(vecs)), K: 1}, Euclidean); s != 0 {
		t.Fatalf("single-cluster silhouette %v", s)
	}
	if s := Silhouette(nil, Clustering{}, Euclidean); s != 0 {
		t.Fatal("empty silhouette")
	}
	// all singletons -> all zero contributions
	assign := []int{0, 1, 2}
	if s := Silhouette(vecs[:3], Clustering{Assign: assign, K: 3}, Euclidean); s != 0 {
		t.Fatalf("all-singleton silhouette %v", s)
	}
}

func TestSilhouetteBounds(t *testing.T) {
	vecs, labels := blobs(6)
	s := Silhouette(vecs, Clustering{Assign: labels, K: 3}, Euclidean)
	if s < -1 || s > 1 {
		t.Fatalf("silhouette %v outside [-1,1]", s)
	}
}

func TestRandomClusteringValid(t *testing.T) {
	rng := numeric.NewNamedRNG(1, "rc")
	cl := RandomClustering(20, 4, rng)
	if len(cl.Assign) != 20 {
		t.Fatal("wrong length")
	}
	for _, a := range cl.Assign {
		if a < 0 || a >= cl.K {
			t.Fatalf("assignment %d outside [0,%d)", a, cl.K)
		}
	}
}

func TestMatrixSymmetric(t *testing.T) {
	vecs, _ := blobs(4)
	m := matrix(vecs, Euclidean, 1)
	for i := 0; i < m.Rows; i++ {
		if m.At(i, i) != 0 {
			t.Fatal("diagonal not zero")
		}
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatal("matrix not symmetric")
			}
		}
	}
}

func TestCosineDistance(t *testing.T) {
	if got := Cosine([]float64{1, 0}, []float64{1, 0}); math.Abs(got) > 1e-12 {
		t.Fatalf("identical cosine distance %v", got)
	}
	if got := Cosine([]float64{1, 0}, []float64{-1, 0}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("opposite cosine distance %v", got)
	}
}

func TestAdjustedRandIndexIdentical(t *testing.T) {
	a := Clustering{Assign: []int{0, 0, 1, 1, 2}, K: 3}
	if got := AdjustedRandIndex(a, a); got != 1 {
		t.Fatalf("self ARI = %v", got)
	}
	// identical up to relabeling
	b := Clustering{Assign: []int{2, 2, 0, 0, 1}, K: 3}
	if got := AdjustedRandIndex(a, b); got != 1 {
		t.Fatalf("relabel ARI = %v", got)
	}
}

func TestAdjustedRandIndexRandomNearZero(t *testing.T) {
	rng := numeric.NewNamedRNG(1, "ari")
	n := 2000
	a := RandomClustering(n, 4, rng)
	b := RandomClustering(n, 4, rng)
	if got := AdjustedRandIndex(a, b); math.Abs(got) > 0.05 {
		t.Fatalf("independent random clusterings ARI = %v", got)
	}
}

func TestAdjustedRandIndexPartial(t *testing.T) {
	a := Clustering{Assign: []int{0, 0, 0, 1, 1, 1}, K: 2}
	b := Clustering{Assign: []int{0, 0, 1, 1, 1, 1}, K: 2}
	got := AdjustedRandIndex(a, b)
	if got <= 0 || got >= 1 {
		t.Fatalf("partial agreement ARI = %v, want strictly between 0 and 1", got)
	}
}

func TestAdjustedRandIndexMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	AdjustedRandIndex(Clustering{Assign: []int{0}}, Clustering{Assign: []int{0, 1}})
}

func TestAdjustedRandIndexEmpty(t *testing.T) {
	if AdjustedRandIndex(Clustering{}, Clustering{}) != 1 {
		t.Fatal("empty clusterings should agree")
	}
}
