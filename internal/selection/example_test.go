package selection_test

import (
	"fmt"

	"twophase/internal/selection"
)

// ExamplePredictSHEpochs reproduces the paper's Table V runtime
// accounting analytically: 10 models halving per epoch over a 5-epoch
// budget cost 10+5+2+1+1 = 19 epochs.
func ExamplePredictSHEpochs() {
	fmt.Println(selection.PredictSHEpochs(10, 5))
	fmt.Println(selection.PredictSHEpochs(40, 5))
	// Output:
	// 19
	// 77
}

func ExampleMatchTrend() {
	trends := []selection.Trend{
		{Val: 0.45, Test: 0.50},
		{Val: 0.70, Test: 0.72},
		{Val: 0.90, Test: 0.88},
	}
	// a model validating at 0.68 after the first epoch matches the
	// middle trend, so its final accuracy is predicted as 0.72
	idx := selection.MatchTrend(trends, 0.68)
	fmt.Printf("%d %.2f\n", idx, trends[idx].Test)
	// Output: 1 0.72
}
