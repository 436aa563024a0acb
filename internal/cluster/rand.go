package cluster

// AdjustedRandIndex measures the agreement of two clusterings of the same
// items, corrected for chance: 1 means identical partitions, ~0 means
// random agreement. Used to check that the model clustering is stable
// when the offline matrix is built from less training data (the §III.A
// claim that "a subset of training data with relative small size could be
// enough").
func AdjustedRandIndex(a, b Clustering) float64 {
	n := len(a.Assign)
	if n != len(b.Assign) {
		panic("cluster: AdjustedRandIndex length mismatch")
	}
	if n == 0 {
		return 1
	}
	// contingency table
	table := make(map[[2]int]int)
	rowSum := make(map[int]int)
	colSum := make(map[int]int)
	for i := 0; i < n; i++ {
		table[[2]int{a.Assign[i], b.Assign[i]}]++
		rowSum[a.Assign[i]]++
		colSum[b.Assign[i]]++
	}
	// The explicit conversions keep x*(x-1)/2 and the halved max below —
	// both compiled as products with 0.5 — from fusing into the add and
	// the subtraction they feed.
	choose2 := func(x int) float64 { return float64(float64(x) * float64(x-1) / 2) }

	var sumTable, sumRows, sumCols float64
	for _, v := range table {
		sumTable += choose2(v)
	}
	for _, v := range rowSum {
		sumRows += choose2(v)
	}
	for _, v := range colSum {
		sumCols += choose2(v)
	}
	total := choose2(n)
	if total == 0 {
		return 1
	}
	expected := sumRows * sumCols / total
	max := (sumRows + sumCols) / 2
	if max == expected {
		return 1 // both partitions are trivial in the same way
	}
	return (sumTable - expected) / (float64(max) - expected)
}
