package numeric

// Matrix is a dense row-major float64 matrix. The zero value is an empty
// matrix; use NewMatrix for a sized one.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("numeric: NewMatrix with negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// MulVec computes out = M * x. out must have length Rows and x length
// Cols. Row pairs run with two independent accumulators to hide the add
// latency; each output element still accumulates its own dot product in
// ascending j order, every product rounded before it is added (the
// bit-identity rule — see Frame).
func (m *Matrix) MulVec(x, out []float64) {
	if len(x) != m.Cols || len(out) != m.Rows {
		panic("numeric: MulVec dimension mismatch")
	}
	d := m.Cols
	i := 0
	for ; i+2 <= m.Rows; i += 2 {
		r0 := m.Data[i*d : (i+1)*d]
		r1 := m.Data[(i+1)*d : (i+2)*d]
		r1 = r1[:len(r0)]
		xx := x[:len(r0)]
		var s0, s1 float64
		for j, w0 := range r0 {
			v := xx[j]
			s0 += float64(w0 * v)
			s1 += float64(r1[j] * v)
		}
		out[i], out[i+1] = s0, s1
	}
	if i < m.Rows {
		row := m.Data[i*d : (i+1)*d]
		xx := x[:len(row)]
		var s float64
		for j, w := range row {
			s += float64(w * xx[j])
		}
		out[i] = s
	}
}

// RandomMatrix fills a rows x cols matrix with N(0, sigma^2) entries drawn
// from r.
func RandomMatrix(r *RNG, rows, cols int, sigma float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Norm() * sigma
	}
	return m
}

// GramSchmidt orthonormalizes the rows of m in place (modified
// Gram-Schmidt). Rows that become numerically zero are re-randomized from
// r and the pass restarted for that row, which keeps the result full rank
// for rows <= cols.
func GramSchmidt(m *Matrix, r *RNG) {
	const eps = 1e-12
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for attempt := 0; ; attempt++ {
			for j := 0; j < i; j++ {
				prev := m.Row(j)
				proj := Dot(row, prev)
				AddScaled(row, -proj, prev)
			}
			if Norm2(row) > eps {
				break
			}
			if attempt > 4 {
				panic("numeric: GramSchmidt failed to find independent row")
			}
			for k := range row {
				row[k] = r.Norm()
			}
		}
		Normalize(row)
	}
}
