package numeric

import (
	"math"
	"testing"
)

func TestFrameRowAliasesBacking(t *testing.T) {
	f := NewFrame(3, 4)
	f.Row(1)[2] = 42
	if f.Data[1*4+2] != 42 {
		t.Fatal("Row view write did not reach the backing slice")
	}
	f.Data[2*4+3] = 7
	if f.Row(2)[3] != 7 {
		t.Fatal("backing slice write not visible through Row view")
	}
	if got := len(f.Row(0)); got != 4 {
		t.Fatalf("row length %d, want 4", got)
	}
	// Full-capacity slicing: appending to a row view must never spill
	// into the next row.
	r := f.Row(0)
	r = append(r, 99)
	if f.Row(1)[0] == 99 {
		t.Fatal("append through a row view clobbered the next row")
	}
}

func TestFrameSliceSharesBacking(t *testing.T) {
	f := NewFrame(5, 3)
	for i := range f.Data {
		f.Data[i] = float64(i)
	}
	s := f.Slice(1, 4)
	if s.N != 3 || s.D != 3 {
		t.Fatalf("slice shape %dx%d, want 3x3", s.N, s.D)
	}
	if s.Row(0)[0] != f.Row(1)[0] {
		t.Fatal("slice does not view the parent rows")
	}
	s.Row(0)[0] = -1
	if f.Row(1)[0] != -1 {
		t.Fatal("slice write not visible in parent")
	}
}

func TestRows2DAliases(t *testing.T) {
	f := NewFrame(2, 2)
	rows := f.Rows2D()
	rows[1][1] = 5
	if f.At(1, 1) != 5 {
		t.Fatal("Rows2D rows must alias the backing slice")
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	a, b := NewRNG(1234), NewRNG(1234)
	buf := make([]int, 17)
	for iter := 0; iter < 5; iter++ {
		want := a.Perm(17)
		got := b.PermInto(buf)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("iter %d index %d: PermInto %d, Perm %d", iter, i, got[i], want[i])
			}
		}
	}
}

// mulFrameMatchesMulVec is the core bit-identity property: for every row,
// every batched kernel must equal the per-row MulVec reference exactly —
// not approximately.
func mulFrameMatchesMulVec(t *testing.T, rows, cols, n int, seed uint64) {
	t.Helper()
	rng := NewRNG(seed)
	m := RandomMatrix(rng, rows, cols, 1.3)
	x := NewFrame(n, cols)
	for i := range x.Data {
		x.Data[i] = rng.Norm()
	}
	bias := rng.NormVec(rows)

	out := NewFrame(n, rows)
	m.MulFrame(x, out)
	outB := NewFrame(n, rows)
	m.MulFrameBias(x, bias, outB)
	outS := NewFrame(n, rows)
	m.MulFrameBiasSoftmax(x, bias, outS)

	ref := make([]float64, rows)
	refSoft := make([]float64, rows)
	for i := 0; i < n; i++ {
		m.MulVec(x.Row(i), ref)
		for r := 0; r < rows; r++ {
			if out.At(i, r) != ref[r] {
				t.Fatalf("%dx%d n=%d: MulFrame[%d][%d] = %x, MulVec = %x",
					rows, cols, n, i, r, out.At(i, r), ref[r])
			}
			want := ref[r] + bias[r]
			if outB.At(i, r) != want {
				t.Fatalf("MulFrameBias[%d][%d] = %x, want %x", i, r, outB.At(i, r), want)
			}
			refSoft[r] = want
		}
		Softmax(refSoft, refSoft)
		for r := 0; r < rows; r++ {
			if outS.At(i, r) != refSoft[r] {
				t.Fatalf("MulFrameBiasSoftmax[%d][%d] = %x, want %x", i, r, outS.At(i, r), refSoft[r])
			}
		}
	}
}

func TestMulFrameMatchesMulVecRandomShapes(t *testing.T) {
	rng := NewRNG(99)
	for iter := 0; iter < 40; iter++ {
		rows := 1 + rng.Intn(17)
		cols := 1 + rng.Intn(65)
		n := 1 + rng.Intn(200) // crosses the frameBlock tile boundary
		mulFrameMatchesMulVec(t, rows, cols, n, rng.Uint64())
	}
	// Degenerate shapes.
	mulFrameMatchesMulVec(t, 1, 1, 1, 5)
	mulFrameMatchesMulVec(t, 3, 2, frameBlock, 6)
	mulFrameMatchesMulVec(t, 3, 2, frameBlock+1, 7)
}

func FuzzMulFrameMatchesMulVec(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(5), uint8(10))
	f.Add(uint64(2), uint8(16), uint8(48), uint8(70))
	f.Add(uint64(3), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols, n uint8) {
		r := int(rows%24) + 1
		c := int(cols%72) + 1
		nn := int(n)%150 + 1
		mulFrameMatchesMulVec(t, r, c, nn, seed)
	})
}

func TestSoftmaxRowsMatchesSoftmax(t *testing.T) {
	rng := NewRNG(4)
	f := NewFrame(9, 6)
	for i := range f.Data {
		f.Data[i] = rng.Norm() * 3
	}
	want := f.Clone()
	for i := 0; i < want.N; i++ {
		row := want.Row(i)
		Softmax(row, row)
	}
	SoftmaxRows(f)
	for i := range f.Data {
		if f.Data[i] != want.Data[i] {
			t.Fatalf("SoftmaxRows element %d = %x, want %x", i, f.Data[i], want.Data[i])
		}
	}
}

func TestMulFramePanicsOnMismatch(t *testing.T) {
	m := NewMatrix(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension-mismatch panic")
		}
	}()
	m.MulFrame(NewFrame(4, 2), NewFrame(4, 2))
}

func TestFrameNaNPropagation(t *testing.T) {
	// Kernels must not mask NaNs via clever summation.
	m := NewMatrix(1, 2)
	m.Data[0], m.Data[1] = 1, 1
	x := NewFrame(1, 2)
	x.Data[0] = math.NaN()
	out := NewFrame(1, 1)
	m.MulFrame(x, out)
	if !math.IsNaN(out.At(0, 0)) {
		t.Fatal("NaN input did not propagate")
	}
}
