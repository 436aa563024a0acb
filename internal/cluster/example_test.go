package cluster_test

import (
	"fmt"

	"twophase/internal/cluster"
)

// Example demonstrates Eq. 1: the similarity of two models is judged only
// by the benchmarks where they differ most, ignoring benchmarks where
// every model performs alike.
func ExampleTopKDistance() {
	a := []float64{0.90, 0.85, 0.50, 0.51}
	b := []float64{0.88, 0.84, 0.52, 0.90}
	// top-2 absolute differences: |0.51-0.90|=0.39 and |0.50-0.52|=0.02
	fmt.Printf("%.3f\n", 1-cluster.TopKDistance(2)(a, b))
	// Output: 0.795
}

func ExampleAgglomerative() {
	vecs := [][]float64{
		{0.9, 0.9}, {0.91, 0.89}, // strong pair
		{0.5, 0.5}, {0.52, 0.51}, // weak pair
	}
	cl := cluster.Agglomerative(vecs, cluster.Euclidean, 0.1, 0, 1)
	fmt.Println(cl.K, cl.Assign)
	// Output: 2 [0 0 1 1]
}

func ExampleClustering_NonSingletons() {
	cl := cluster.Clustering{Assign: []int{0, 1, 0, 2}, K: 3}
	fmt.Println(cl.NonSingletons())
	// Output: [[0 2]]
}
