package selection

import (
	"context"
	"testing"
	"testing/quick"
)

// Closed-form epoch costs of the search, after the Shift system the paper
// cites in §VI ("builds cost model to predict the training cost of
// successive halving and fine-tuning directly"). They depend only on the
// pool size, the epoch budget and the validation interval, and are the
// oracle the loop's ledger is checked against.

// PredictBruteForceEpochs returns the exact cost of fine-tuning every
// model to the full budget.
func PredictBruteForceEpochs(pool, budget int) int {
	if pool <= 0 || budget <= 0 {
		return 0
	}
	return pool * budget
}

// PredictSHEpochs returns the exact cost of successive halving at
// validation interval s (0 means 1): the pool halves after every stage
// until one model remains, which trains out the rest of the budget.
func PredictSHEpochs(pool, budget, s int) int {
	if pool <= 0 || budget <= 0 {
		return 0
	}
	if s <= 0 {
		s = 1
	}
	total := 0
	remaining := budget
	n := pool
	for remaining > 0 {
		stage := s
		if stage > remaining {
			stage = remaining
		}
		total += n * stage
		remaining -= stage
		if n > 1 {
			n = n / 2
			if n < 1 {
				n = 1
			}
		}
	}
	return total
}

// PredictFSEpochsRange bounds the cost of fine-selection: the lower bound
// assumes the trend filter cuts to one model after the first stage; the
// upper bound is plain successive halving (the filter never fires).
func PredictFSEpochsRange(pool, budget, s int) (lo, hi int) {
	if pool <= 0 || budget <= 0 {
		return 0, 0
	}
	if s <= 0 {
		s = 1
	}
	first := s
	if first > budget {
		first = budget
	}
	lo = pool*first + (budget - first)
	hi = PredictSHEpochs(pool, budget, s)
	if lo > hi {
		lo = hi
	}
	return lo, hi
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
		if got := PredictSHEpochs(c.pool, c.budget, 1); got != c.want {
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
	f := func(pool, budget, s uint8) bool {
		p := int(pool%50) + 1
		b := int(budget%8) + 1
		ss := int(s%3) + 1
		bf := PredictBruteForceEpochs(p, b)
		sh := PredictSHEpochs(p, b, ss)
		lo, hi := PredictFSEpochsRange(p, b, ss)
		return lo <= hi && hi <= sh && sh <= bf && lo >= b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredictSHMatchesActual(t *testing.T) {
	// The cost model must agree with the real procedure.
	models, _, target, cfg := fixture(t)
	for _, s := range []int{1, 2} {
		cfg.StageEpochs = s
		out, err := SuccessiveHalving(context.Background(), models, target, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := PredictSHEpochs(len(models), cfg.HP.Epochs, s)
		if out.Ledger.TrainEpochs() != want {
			t.Fatalf("s=%d: actual %d != predicted %d", s, out.Ledger.TrainEpochs(), want)
		}
	}
}

func TestPredictFSBoundsActual(t *testing.T) {
	models, m, target, cfg := fixture(t)
	out, err := FineSelect(context.Background(), models, target, FineSelectOptions{Config: cfg, Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := PredictFSEpochsRange(len(models), cfg.HP.Epochs, 1)
	got := out.Ledger.TrainEpochs()
	if got < lo || got > hi {
		t.Fatalf("actual FS cost %d outside predicted [%d, %d]", got, lo, hi)
	}
}
