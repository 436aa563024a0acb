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
