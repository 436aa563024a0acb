package selection

import (
	"fmt"
	"math"
	"sort"

	"twophase/internal/numeric"
	"twophase/internal/perfmatrix"
)

// Trend is one mined convergence trend of a model: the mean validation
// accuracy of a cluster of benchmark datasets at some stage, paired with
// the cluster's mean final test accuracy (CT(m)_t[x] = (val_x, test_x),
// §IV.C).
type Trend struct {
	Val     float64 // mean validation accuracy at the stage
	Test    float64 // mean final test accuracy (the prediction)
	Members []int   // indices of the clustered benchmarks (matrix dataset order for TrendsAtStage)
}

// trendClusters is the number of convergence trends mined per model;
// Fig. 4 shows the paper's four groups.
const trendClusters = 4

// TrendsAtStage mines the model's convergence trends at the given stage
// (0-based epoch index): Trends over its benchmark validation accuracies
// at that stage and their final test accuracies.
func TrendsAtStage(m *perfmatrix.Matrix, model string, stage int) ([]Trend, error) {
	vals, finals, err := m.ValCurves(model)
	if err != nil {
		return nil, err
	}
	points := make([]float64, len(vals))
	for i, curve := range vals {
		if stage >= len(curve) {
			return nil, fmt.Errorf("selection: stage %d outside %d-epoch offline curve for %s", stage, len(curve), model)
		}
		points[i] = curve[stage]
	}
	return Trends(points, finals), nil
}

// Trends clusters the validation accuracies vals into at most
// trendClusters one-dimensional groups and returns one Trend per group,
// sorted by ascending Val: its members' mean val and mean final (finals
// aligned with vals). Members index vals.
//
// The 1-D k-means uses quantile initialization, which makes it
// deterministic without an RNG.
func Trends(vals, finals []float64) []Trend {
	assign := kmeans1D(vals, trendClusters)

	k := 0
	for _, a := range assign {
		if a+1 > k {
			k = a + 1
		}
	}
	trends := make([]Trend, 0, k)
	for g := 0; g < k; g++ {
		var t Trend
		for i, a := range assign {
			if a != g {
				continue
			}
			t.Members = append(t.Members, i)
			t.Val += vals[i]
			t.Test += finals[i]
		}
		if len(t.Members) == 0 {
			continue
		}
		t.Val /= float64(len(t.Members))
		t.Test /= float64(len(t.Members))
		trends = append(trends, t)
	}
	sort.Slice(trends, func(i, j int) bool { return trends[i].Val < trends[j].Val })
	return trends
}

// MatchTrend returns the index of the trend whose stage validation mean is
// closest to val (Eq. 5); ties take the lower-val trend.
func MatchTrend(trends []Trend, val float64) int {
	if len(trends) == 0 {
		return -1
	}
	best, bestD := 0, math.Abs(trends[0].Val-val)
	for i := 1; i < len(trends); i++ {
		if d := math.Abs(trends[i].Val - val); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// trendKey identifies one model's mined trends at one stage in a matrix's
// memo.
type trendKey struct {
	model string
	stage int
}

// minedTrends is TrendsAtStage, mined once per (model, stage) for the
// lifetime of the matrix: the trends depend on the offline curves alone —
// the paper mines them offline — so online selections share one read-only
// copy held by the matrix they came from.
func minedTrends(m *perfmatrix.Matrix, model string, stage int) ([]Trend, error) {
	v, err := m.Memo(trendKey{model, stage}, func() (any, error) {
		return TrendsAtStage(m, model, stage)
	})
	if err != nil {
		return nil, err
	}
	return v.([]Trend), nil
}

// predictFinal matches val against the model's stage trends and returns
// the matched trend's mean final test accuracy (Eq. 6). The trends are
// mined on first use and then looked up; see minedTrends.
func predictFinal(m *perfmatrix.Matrix, model string, stage int, val float64) (float64, error) {
	trends, err := minedTrends(m, model, stage)
	if err != nil {
		return 0, err
	}
	idx := MatchTrend(trends, val)
	if idx < 0 {
		return 0, fmt.Errorf("selection: no trends for model %s", model)
	}
	return trends[idx].Test, nil
}

// kmeans1D clusters scalar points into at most k groups via Lloyd's
// algorithm with quantile-initialized centers. Returned labels are
// ordered by center value (label 0 = lowest).
func kmeans1D(points []float64, k int) []int {
	n := len(points)
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	sorted := numeric.Clone(points)
	sort.Float64s(sorted)
	centers := make([]float64, k)
	for i := range centers {
		q := (float64(i) + 0.5) / float64(k)
		centers[i] = sorted[int(float64(q*float64(n-1))+0.5)]
	}

	assign := make([]int, n)
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Abs(p-centers[0])
			for c := 1; c < k; c++ {
				if d := math.Abs(p - centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, p := range points {
			sums[assign[i]] += p
			counts[assign[i]]++
		}
		for c := range centers {
			if counts[c] > 0 {
				centers[c] = sums[c] / float64(counts[c])
			}
		}
		if !changed && iter > 0 {
			break
		}
	}

	// Re-label clusters in ascending center order and compact empties.
	type cc struct {
		center float64
		old    int
	}
	var used []cc
	seen := make(map[int]bool)
	for _, a := range assign {
		if !seen[a] {
			seen[a] = true
			used = append(used, cc{centers[a], a})
		}
	}
	sort.Slice(used, func(i, j int) bool { return used[i].center < used[j].center })
	remap := make(map[int]int, len(used))
	for newID, u := range used {
		remap[u.old] = newID
	}
	for i, a := range assign {
		assign[i] = remap[a]
	}
	return assign
}
