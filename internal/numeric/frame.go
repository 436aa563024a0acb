package numeric

// Frame is a contiguous row-major collection of N fixed-width rows — the
// flat-buffer representation of a batch of examples (or their features,
// logits or probabilities). Unlike a [][]float64, every row lives in one
// backing slice, so batched kernels stream it linearly instead of chasing
// per-row pointers, and a whole frame is a single allocation.
//
// Row returns views that alias Data: writing through a row view mutates
// the frame, and vice versa. Frames handed out by caches are shared
// read-only; callers must not write through their rows.
//
// Determinism rule for kernel writers: every kernel that produces a
// float64 from a reduction MUST accumulate that element in ascending
// index order with a single accumulator, exactly like Matrix.MulVec.
// Blocking, tiling and loop interchange over *independent* output
// elements are fair game; reassociating one element's sum is not. This is
// what keeps frame kernels bit-identical to the historical per-example
// path (see the golden suite in internal/core).
//
// And a product never feeds an add unconverted: write s += float64(a*b),
// not s += a*b. The explicit conversion rounds the product, which is the
// language's one guarantee that arm64, ppc64le, s390x and riscv64 do not
// fuse the pair into a single-rounding multiply-add; amd64 compiles both
// spellings to the same code. TestNoFusedMultiplyAdd (surface_test.go)
// counts the fused instructions of an arm64 build.
type Frame struct {
	N, D int
	Data []float64 // len == N*D, row-major
}

// NewFrame returns a zeroed N x D frame backed by one allocation.
func NewFrame(n, d int) *Frame {
	if n < 0 || d < 0 {
		panic("numeric: NewFrame with negative dimension")
	}
	return &Frame{N: n, D: d, Data: make([]float64, n*d)}
}

// Row returns a mutable view of row i, aliasing the backing slice.
func (f *Frame) Row(i int) []float64 {
	return f.Data[i*f.D : (i+1)*f.D : (i+1)*f.D]
}

// At returns the element at (i, j).
func (f *Frame) At(i, j int) float64 { return f.Data[i*f.D+j] }

// Slice returns a view of rows [lo, hi) sharing the backing slice.
func (f *Frame) Slice(lo, hi int) *Frame {
	if lo < 0 || hi < lo || hi > f.N {
		panic("numeric: Frame.Slice out of range")
	}
	return &Frame{N: hi - lo, D: f.D, Data: f.Data[lo*f.D : hi*f.D : hi*f.D]}
}

// Rows2D returns all rows as views over the backing slice — an adapter
// for APIs that still consume [][]float64 (e.g. package cluster). The
// views alias Data; no element is copied.
func (f *Frame) Rows2D() [][]float64 {
	out := make([][]float64, f.N)
	for i := range out {
		out[i] = f.Row(i)
	}
	return out
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	c := &Frame{N: f.N, D: f.D, Data: make([]float64, len(f.Data))}
	copy(c.Data, f.Data)
	return c
}

// frameBlock is the row-tile size of the batched kernels: one tile of x
// rows (up to frameBlock * D floats) is reused against every matrix row
// before the kernel moves on, keeping the tile L1/L2-resident.
const frameBlock = 64

// MulFrame computes out.Row(i) = M * x.Row(i) for every row of x — the
// batched form of MulVec (out = x * Mᵀ). x must be N x Cols and out
// N x Rows. Each output element accumulates in ascending j order with a
// single accumulator, so every element is bit-identical to a per-row
// MulVec; the kernel only tiles and register-blocks over *independent*
// output elements.
func (m *Matrix) MulFrame(x, out *Frame) {
	if x.D != m.Cols || out.D != m.Rows || x.N != out.N {
		panic("numeric: MulFrame dimension mismatch")
	}
	mulFrame(m, x, nil, out)
}

// MulFrameBias is MulFrame with a fused bias add:
// out.Row(i)[r] = (M.Row(r) · x.Row(i)) + bias[r]. The dot product is
// rounded to float64 before the bias is added, exactly as the historical
// two-step (store, then +=) computed it.
func (m *Matrix) MulFrameBias(x *Frame, bias []float64, out *Frame) {
	if x.D != m.Cols || out.D != m.Rows || x.N != out.N || len(bias) != m.Rows {
		panic("numeric: MulFrameBias dimension mismatch")
	}
	mulFrame(m, x, bias, out)
}

// MulFrameBiasSoftmax fuses the full prediction head: logits = M*x.Row(i)
// + bias per row, normalized in place by a row softmax.
func (m *Matrix) MulFrameBiasSoftmax(x *Frame, bias []float64, out *Frame) {
	m.MulFrameBias(x, bias, out)
	SoftmaxRows(out)
}

// mulFrame is the shared batched kernel: an L1-sized tile over x rows and,
// inside it, a 2x2 register block — two matrix rows against two x rows,
// four independent accumulators in flight — which hides the add latency
// that a single serial accumulator chain cannot. Every accumulator still
// sums its own element in ascending j order, each product rounded first,
// which is the determinism rule that keeps this bit-identical to per-row
// MulVec. bias may be nil.
func mulFrame(m *Matrix, x *Frame, bias []float64, out *Frame) {
	d := m.Cols
	for i0 := 0; i0 < x.N; i0 += frameBlock {
		i1 := i0 + frameBlock
		if i1 > x.N {
			i1 = x.N
		}
		r := 0
		for ; r+2 <= m.Rows; r += 2 {
			w0 := m.Data[r*d : (r+1)*d]
			w1 := m.Data[(r+1)*d : (r+2)*d]
			w1 = w1[:len(w0)]
			var b0, b1 float64
			if bias != nil {
				b0, b1 = bias[r], bias[r+1]
			}
			i := i0
			for ; i+2 <= i1; i += 2 {
				xa := x.Data[i*d : i*d+d]
				xb := x.Data[(i+1)*d : (i+1)*d+d]
				xa, xb = xa[:len(w0)], xb[:len(w0)]
				var s00, s01, s10, s11 float64
				for j, wa := range w0 {
					wb := w1[j]
					va, vb := xa[j], xb[j]
					s00 += float64(wa * va)
					s01 += float64(wa * vb)
					s10 += float64(wb * va)
					s11 += float64(wb * vb)
				}
				if bias != nil {
					s00, s01, s10, s11 = s00+b0, s01+b0, s10+b1, s11+b1
				}
				out.Data[i*out.D+r] = s00
				out.Data[(i+1)*out.D+r] = s01
				out.Data[i*out.D+r+1] = s10
				out.Data[(i+1)*out.D+r+1] = s11
			}
			for ; i < i1; i++ {
				xa := x.Data[i*d : i*d+d]
				xa = xa[:len(w0)]
				var s0, s1 float64
				for j, wa := range w0 {
					va := xa[j]
					s0 += float64(wa * va)
					s1 += float64(w1[j] * va)
				}
				if bias != nil {
					s0, s1 = s0+b0, s1+b1
				}
				out.Data[i*out.D+r] = s0
				out.Data[i*out.D+r+1] = s1
			}
		}
		if r < m.Rows {
			w0 := m.Data[r*d : (r+1)*d]
			var b0 float64
			if bias != nil {
				b0 = bias[r]
			}
			i := i0
			for ; i+2 <= i1; i += 2 {
				xa := x.Data[i*d : i*d+d]
				xb := x.Data[(i+1)*d : (i+1)*d+d]
				xa, xb = xa[:len(w0)], xb[:len(w0)]
				var s0, s1 float64
				for j, wa := range w0 {
					s0 += float64(wa * xa[j])
					s1 += float64(wa * xb[j])
				}
				if bias != nil {
					s0, s1 = s0+b0, s1+b0
				}
				out.Data[i*out.D+r] = s0
				out.Data[(i+1)*out.D+r] = s1
			}
			for ; i < i1; i++ {
				xa := x.Data[i*d : i*d+d]
				xa = xa[:len(w0)]
				var s float64
				for j, wa := range w0 {
					s += float64(wa * xa[j])
				}
				if bias != nil {
					s += b0
				}
				out.Data[i*out.D+r] = s
			}
		}
	}
}

// SoftmaxRows applies Softmax to every row of f in place.
func SoftmaxRows(f *Frame) {
	for i := 0; i < f.N; i++ {
		row := f.Row(i)
		Softmax(row, row)
	}
}
