package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestDotSymmetricProperty(t *testing.T) {
	f := func(a, b [8]float64) bool {
		x, y := sanitize(a[:]), sanitize(b[:])
		return almostEq(Dot(x, y), Dot(y, x), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2AndNormalize(t *testing.T) {
	v := []float64{3, 4}
	if Norm2(v) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(v))
	}
	Normalize(v)
	if !almostEq(Norm2(v), 1, 1e-12) {
		t.Fatalf("normalized norm %v", Norm2(v))
	}
	zero := []float64{0, 0}
	Normalize(zero)
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatal("Normalize mutated zero vector")
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(a [6]float64) bool {
		v := sanitize(a[:])
		Normalize(v)
		n := Norm2(v)
		return n == 0 || almostEq(n, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddScaledAndScale(t *testing.T) {
	dst := []float64{1, 1}
	AddScaled(dst, 2, []float64{3, 4})
	if dst[0] != 7 || dst[1] != 9 {
		t.Fatalf("AddScaled = %v", dst)
	}
	Scale(dst, 0.5)
	if dst[0] != 3.5 || dst[1] != 4.5 {
		t.Fatalf("Scale = %v", dst)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity([]float64{1, 0}, []float64{1, 0}); !almostEq(got, 1, 1e-12) {
		t.Fatalf("parallel = %v", got)
	}
	if got := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); !almostEq(got, 0, 1e-12) {
		t.Fatalf("orthogonal = %v", got)
	}
	if got := CosineSimilarity([]float64{1, 0}, []float64{0, 0}); got != 0 {
		t.Fatalf("zero vector = %v", got)
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	f := func(a, b [5]float64) bool {
		c := CosineSimilarity(sanitize(a[:]), sanitize(b[:]))
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEuclideanDistance(t *testing.T) {
	if got := EuclideanDistance([]float64{0, 0}, []float64{3, 4}); got != 5 {
		t.Fatalf("distance = %v", got)
	}
}

func TestEuclideanTriangleInequality(t *testing.T) {
	f := func(a, b, c [4]float64) bool {
		x, y, z := sanitize(a[:]), sanitize(b[:]), sanitize(c[:])
		ab := EuclideanDistance(x, y)
		bc := EuclideanDistance(y, z)
		ac := EuclideanDistance(x, z)
		return ac <= ab+bc+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := []float64{1, 2}
	c := Clone(v)
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases source")
	}
}

func TestArgMaxArgMin(t *testing.T) {
	v := []float64{1, 5, 5, 0}
	if ArgMax(v) != 1 {
		t.Fatalf("ArgMax = %d (want first of ties)", ArgMax(v))
	}
	if argMin(v) != 3 {
		t.Fatalf("argMin = %d", argMin(v))
	}
}

func TestArgMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ArgMax(nil)
}

func TestSoftmaxSumsToOne(t *testing.T) {
	logits := []float64{1, 2, 3, 1000} // extreme value exercises stability
	out := make([]float64, 4)
	Softmax(logits, out)
	var sum float64
	for _, p := range out {
		if p < 0 || math.IsNaN(p) {
			t.Fatalf("invalid probability %v", p)
		}
		sum += p
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Fatalf("softmax sum = %v", sum)
	}
	if ArgMax(out) != 3 {
		t.Fatal("softmax changed argmax")
	}
}

func TestSoftmaxProperty(t *testing.T) {
	f := func(a [6]float64) bool {
		in := sanitize(a[:])
		out := make([]float64, 6)
		Softmax(in, out)
		var sum float64
		for _, p := range out {
			if p < 0 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return almostEq(sum, 1, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxInPlace(t *testing.T) {
	v := []float64{0, 0}
	Softmax(v, v)
	if !almostEq(v[0], 0.5, 1e-12) || !almostEq(v[1], 0.5, 1e-12) {
		t.Fatalf("in-place softmax = %v", v)
	}
}

// sanitize maps arbitrary generated floats into a well-behaved range so
// property tests exercise logic, not IEEE overflow.
func sanitize(v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		switch {
		case math.IsNaN(x) || math.IsInf(x, 0):
			out[i] = 0
		default:
			out[i] = math.Mod(x, 10)
		}
	}
	return out
}
