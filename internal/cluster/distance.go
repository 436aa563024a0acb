// Package cluster implements the model-clustering machinery of the
// coarse-recall phase: the paper's top-k performance-difference similarity
// (Eq. 1), average-linkage agglomerative clustering, k-means, and the
// silhouette coefficient used to compare clusterings (§III.A, §V.B).
package cluster

import (
	"context"
	"math"
	"sort"

	"twophase/internal/fanout"
	"twophase/internal/numeric"
)

// Distance maps two equal-length vectors to a non-negative dissimilarity.
type Distance func(a, b []float64) float64

// TopKDistance returns the paper's Eq. 1 dissimilarity: the mean of the k
// largest absolute coordinate differences between two performance vectors
// (so similarity sim = 1 - distance). Using only the k most-different
// benchmarks filters the noise of benchmarks where every model performs
// alike, while keeping the signal of the ones that discriminate.
func TopKDistance(k int) Distance {
	if k <= 0 {
		panic("cluster: TopKDistance needs k > 0")
	}
	return func(a, b []float64) float64 {
		if len(a) != len(b) {
			panic("cluster: distance length mismatch")
		}
		diffs := make([]float64, len(a))
		for i := range a {
			diffs[i] = math.Abs(a[i] - b[i])
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(diffs)))
		kk := k
		if kk > len(diffs) {
			kk = len(diffs)
		}
		return numeric.Mean(diffs[:kk])
	}
}

// Euclidean is the plain L2 distance (the ablation baseline for Eq. 1).
func Euclidean(a, b []float64) float64 { return numeric.EuclideanDistance(a, b) }

// Cosine is 1 - cosine similarity, used for text-embedding vectors.
func Cosine(a, b []float64) float64 { return 1 - numeric.CosineSimilarity(a, b) }

// matrix precomputes the pairwise distances of vecs under dist, the rows
// fanned out across a worker budget (fanout's width: 1 is serial). Each
// (i, j) pair is computed exactly once by
// the item that owns row i, which writes the two mirror cells — no two
// items ever touch the same cell, and dist must be pure, so the matrix
// is identical for every worker count. A panicking dist is re-raised
// here, on the caller's goroutine, where the request's own recover guards.
func matrix(vecs [][]float64, dist Distance, workers int) *numeric.Matrix {
	n := len(vecs)
	m := numeric.NewMatrix(n, n)
	err := fanout.Each(context.TODO(), n, workers, func(i int) error {
		for j := i + 1; j < n; j++ {
			d := dist(vecs[i], vecs[j])
			m.Set(i, j, d)
			m.Set(j, i, d)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return m
}
