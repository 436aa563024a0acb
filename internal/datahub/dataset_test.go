package datahub

import (
	"math"
	"testing"
	"testing/quick"

	"twophase/internal/synth"
)

func testSpec() Spec {
	return Spec{
		Name:         "test/dataset",
		Task:         TaskNLP,
		Domains:      map[string]float64{DomainNLI: 1},
		Classes:      3,
		Separability: 2,
		Noise:        1,
	}
}

func TestGenerateShapes(t *testing.T) {
	w := synth.NewWorld(42)
	d, err := Generate(w, testSpec(), Sizes{Train: 50, Val: 20, Test: 30})
	if err != nil {
		t.Fatal(err)
	}
	if d.Train.Len() != 50 || d.Val.Len() != 20 || d.Test.Len() != 30 {
		t.Fatalf("split sizes %d/%d/%d", d.Train.Len(), d.Val.Len(), d.Test.Len())
	}
	if d.Train.X.D != synth.InputDim {
		t.Fatalf("example dim %d", d.Train.X.D)
	}
	if d.Train.X.N != d.Train.Len() {
		t.Fatalf("frame rows %d, labels %d", d.Train.X.N, d.Train.Len())
	}
	for _, y := range d.Train.Y {
		if y < 0 || y >= 3 {
			t.Fatalf("label %d outside range", y)
		}
	}
	if d.Centers.Rows != 3 || d.Centers.Cols != synth.InputDim {
		t.Fatalf("centers shape %dx%d", d.Centers.Rows, d.Centers.Cols)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w1, w2 := synth.NewWorld(42), synth.NewWorld(42)
	a, err := Generate(w1, testSpec(), Sizes{Train: 10, Val: 5, Test: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(w2, testSpec(), Sizes{Train: 10, Val: 5, Test: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Train.X.N; i++ {
		if a.Train.Y[i] != b.Train.Y[i] {
			t.Fatal("labels differ across identical worlds")
		}
		for j := range a.Train.X.Row(i) {
			if a.Train.X.At(i, j) != b.Train.X.At(i, j) {
				t.Fatal("examples differ across identical worlds")
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	w := synth.NewWorld(42)
	bad := testSpec()
	bad.Classes = 1
	if _, err := Generate(w, bad, Sizes{}); err == nil {
		t.Fatal("expected error for 1 class")
	}
	if _, err := Generate(w, testSpec(), Sizes{Train: -1, Val: 1, Test: 1}); err == nil {
		t.Fatal("expected error for negative size")
	}
}

func TestGenerateDefaultSizes(t *testing.T) {
	w := synth.NewWorld(42)
	d, err := Generate(w, testSpec(), Sizes{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Train.Len() != DefaultSizes.Train {
		t.Fatalf("default train size %d", d.Train.Len())
	}
}

func TestImbalanceSkewsLabels(t *testing.T) {
	w := synth.NewWorld(42)
	balanced := testSpec()
	skewed := testSpec()
	skewed.Name = "test/skewed"
	skewed.Imbalance = 1.2
	db, err := Generate(w, balanced, Sizes{Train: 2000, Val: 10, Test: 10})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Generate(w, skewed, Sizes{Train: 2000, Val: 10, Test: 10})
	if err != nil {
		t.Fatal(err)
	}
	if mb, ms := majorityBaseline(db.Train.Y), majorityBaseline(ds.Train.Y); ms <= mb {
		t.Fatalf("imbalanced majority %v not above balanced %v", ms, mb)
	}
}

func TestLabelProbsProperty(t *testing.T) {
	f := func(classes uint8, imb uint8) bool {
		c := int(classes%20) + 2
		p := labelProbs(c, float64(imb%3))
		var sum float64
		prev := math.Inf(1)
		for _, v := range p {
			if v <= 0 || v > prev+1e-12 {
				return false // must be positive and non-increasing
			}
			prev = v
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// majorityBaseline returns the accuracy of always predicting the most
// frequent label — the floor every trained model must beat.
func majorityBaseline(y []int) float64 {
	counts := map[int]int{}
	best := 0
	for _, c := range y {
		counts[c]++
		if counts[c] > best {
			best = counts[c]
		}
	}
	return float64(best) / float64(len(y))
}

func TestCrowdingWidensManyClassDatasets(t *testing.T) {
	w := synth.NewWorld(42)
	few := testSpec()
	many := testSpec()
	many.Name = "test/many"
	many.Classes = 20
	df, err := Generate(w, few, Sizes{Train: 10, Val: 5, Test: 5})
	if err != nil {
		t.Fatal(err)
	}
	dm, err := Generate(w, many, Sizes{Train: 10, Val: 5, Test: 5})
	if err != nil {
		t.Fatal(err)
	}
	// mean center norm should grow with class count at equal separability
	norm := func(d *Dataset) float64 {
		var s float64
		for c := 0; c < d.Centers.Rows; c++ {
			var n float64
			for _, v := range d.Centers.Row(c) {
				n += v * v
			}
			s += math.Sqrt(n)
		}
		return s / float64(d.Centers.Rows)
	}
	if norm(dm) <= norm(df) {
		t.Fatalf("crowding factor missing: 20-class %v <= 3-class %v", norm(dm), norm(df))
	}
}
