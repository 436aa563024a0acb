package numeric

import (
	"math"
	"testing"
)

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At mismatch")
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Fatalf("Row = %v", row)
	}
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row is not a view")
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	out := make([]float64, 2)
	m.MulVec([]float64{5, 6}, out)
	if out[0] != 17 || out[1] != 39 {
		t.Fatalf("MulVec = %v", out)
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.MulVec([]float64{1}, make([]float64, 2))
}

func TestRandomMatrixStats(t *testing.T) {
	r := NewRNG(3)
	m := RandomMatrix(r, 100, 100, 2)
	var sum, sumSq float64
	for _, x := range m.Data {
		sum += x
		sumSq += x * x
	}
	n := float64(len(m.Data))
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.05 || math.Abs(std-2) > 0.05 {
		t.Fatalf("random matrix mean %v std %v", mean, std)
	}
}

func TestGramSchmidtOrthonormal(t *testing.T) {
	r := NewRNG(4)
	m := RandomMatrix(r, 6, 16, 1)
	GramSchmidt(m, r)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j <= i; j++ {
			d := Dot(m.Row(i), m.Row(j))
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(d-want) > 1e-9 {
				t.Fatalf("rows %d,%d dot %v (want %v)", i, j, d, want)
			}
		}
	}
}

func TestGramSchmidtRecoversFromDependentRows(t *testing.T) {
	r := NewRNG(5)
	m := NewMatrix(3, 8)
	// rows 0 and 1 identical: Gram-Schmidt must re-randomize row 1
	for j := 0; j < 8; j++ {
		m.Set(0, j, float64(j+1))
		m.Set(1, j, float64(j+1))
		m.Set(2, j, r.Norm())
	}
	GramSchmidt(m, r)
	if math.Abs(Dot(m.Row(0), m.Row(1))) > 1e-9 {
		t.Fatal("dependent rows not orthogonalized")
	}
	if math.Abs(Norm2(m.Row(1))-1) > 1e-9 {
		t.Fatal("re-randomized row not unit norm")
	}
}
