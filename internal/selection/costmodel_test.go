package selection

import (
	"context"
	"testing"
	"testing/quick"
)

// Closed-form epoch costs of the search, after the Shift system the paper
// cites in §VI ("builds cost model to predict the training cost of
// successive halving and fine-tuning directly"). They depend only on the
// pool size and the epoch budget, and are the oracle the loop's ledger is
// checked against.

// PredictBruteForceEpochs returns the exact cost of fine-tuning every
// model to the full budget.
func PredictBruteForceEpochs(pool, budget int) int {
	if pool <= 0 || budget <= 0 {
		return 0
	}
	return pool * budget
}

// PredictSHEpochs returns the exact cost of successive halving: the pool
// halves after every epoch until one model remains, which trains out the
// rest of the budget.
func PredictSHEpochs(pool, budget int) int {
	if pool <= 0 || budget <= 0 {
		return 0
	}
	total := 0
	n := pool
	for e := 0; e < budget; e++ {
		total += n
		n = max(n/2, 1)
	}
	return total
}

// PredictFSEpochsRange bounds the cost of fine-selection: the lower bound
// assumes the trend filter cuts to one model after the first epoch; the
// upper bound is plain successive halving (the filter never fires).
func PredictFSEpochsRange(pool, budget int) (lo, hi int) {
	if pool <= 0 || budget <= 0 {
		return 0, 0
	}
	return min(pool+budget-1, PredictSHEpochs(pool, budget)), PredictSHEpochs(pool, budget)
}

func TestPredictSHEpochsMatchesPaper(t *testing.T) {
	// The paper's Table V: 10 models x 5 epochs = 19; 40 x 5 = 77;
	// 10 x 4 = 18; 30 x 4 = 55.
	cases := []struct{ pool, budget, want int }{
		{10, 5, 19},
		{40, 5, 77},
		{10, 4, 18},
		{30, 4, 55},
	}
	for _, c := range cases {
		if got := PredictSHEpochs(c.pool, c.budget); got != c.want {
			t.Fatalf("SH(%d,%d) = %d, want %d", c.pool, c.budget, got, c.want)
		}
	}
}

func TestPredictBruteForce(t *testing.T) {
	if PredictBruteForceEpochs(40, 5) != 200 {
		t.Fatal("BF(40,5) != 200")
	}
	if PredictBruteForceEpochs(0, 5) != 0 || PredictBruteForceEpochs(5, 0) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestCostOrderingProperty(t *testing.T) {
	f := func(pool, budget uint8) bool {
		p := int(pool%50) + 1
		b := int(budget%8) + 1
		bf := PredictBruteForceEpochs(p, b)
		sh := PredictSHEpochs(p, b)
		lo, hi := PredictFSEpochsRange(p, b)
		return lo <= hi && hi <= sh && sh <= bf && lo >= b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredictSHMatchesActual(t *testing.T) {
	// The cost model must agree with the real procedure.
	models, _, target, cfg := fixture(t)
	out, err := SuccessiveHalving(context.Background(), models, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := PredictSHEpochs(len(models), cfg.HP.Epochs); out.Ledger.TrainEpochs() != want {
		t.Fatalf("actual %d != predicted %d", out.Ledger.TrainEpochs(), want)
	}
}

func TestPredictFSBoundsActual(t *testing.T) {
	models, m, target, cfg := fixture(t)
	out, err := FineSelect(context.Background(), models, target, FineSelectOptions{Config: cfg, Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := PredictFSEpochsRange(len(models), cfg.HP.Epochs)
	got := out.Ledger.TrainEpochs()
	if got < lo || got > hi {
		t.Fatalf("actual FS cost %d outside predicted [%d, %d]", got, lo, hi)
	}
}
