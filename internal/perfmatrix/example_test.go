package perfmatrix_test

import (
	"fmt"

	"twophase/internal/perfmatrix"
)

func ExampleMatchTrend() {
	trends := []perfmatrix.Trend{
		{Val: 0.45, Test: 0.50},
		{Val: 0.70, Test: 0.72},
		{Val: 0.90, Test: 0.88},
	}
	// a model validating at 0.68 after the first epoch matches the
	// middle trend, so its final accuracy is predicted as 0.72
	idx := perfmatrix.MatchTrend(trends, 0.68)
	fmt.Printf("%d %.2f\n", idx, trends[idx].Test)
	// Output: 1 0.72
}
