package numeric

import (
	"fmt"
	"math"
)

// CholeskyFactor factors a symmetric positive-definite matrix in place
// into its lower-triangular Cholesky factor L (a = L·Lᵀ), zeroing the
// strict upper triangle. It follows the determinism rule of this package:
// every output element is produced from a single accumulator summing in
// ascending index order, so the factor is bit-identical on every serving
// path and at every worker count. A non-square or non-positive-definite
// input (a pivot that is zero, negative, or not finite) returns an error
// with the matrix untouched beyond the rows already factored.
func CholeskyFactor(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("numeric: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	for i := 0; i < n; i++ {
		ri := a.Row(i)
		for j := 0; j <= i; j++ {
			rj := a.Row(j)
			// One accumulator, ascending k: the dot product of the two
			// already-factored row prefixes, subtracted once at the end.
			var s float64
			for k := 0; k < j; k++ {
				s += float64(ri[k] * rj[k])
			}
			v := ri[j] - s
			if i == j {
				if !(v > 0) || math.IsInf(v, 0) {
					return fmt.Errorf("numeric: Cholesky pivot %d is %v; matrix not positive definite", i, v)
				}
				ri[j] = math.Sqrt(v)
			} else {
				ri[j] = v / rj[j]
			}
		}
		for j := i + 1; j < n; j++ {
			ri[j] = 0
		}
	}
	return nil
}

// CholeskySolve solves L·Lᵀ·x = b given the factor produced by
// CholeskyFactor, writing the solution into out (which may alias b).
// Forward and back substitution both accumulate each element's sum in
// ascending index order with a single accumulator, keeping the solution
// bit-reproducible.
func CholeskySolve(l *Matrix, b, out []float64) {
	n := l.Rows
	if len(b) != n || len(out) != n {
		panic("numeric: CholeskySolve dimension mismatch")
	}
	// Forward substitution: L·y = b, y stored in out.
	for i := 0; i < n; i++ {
		row := l.Row(i)
		var s float64
		for k := 0; k < i; k++ {
			s += float64(row[k] * out[k])
		}
		out[i] = (b[i] - s) / row[i]
	}
	// Back substitution: Lᵀ·x = y, in place. The column walk below reads
	// L[k][i] for k > i in ascending k — still ascending index order for
	// this element's single accumulator.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for k := i + 1; k < n; k++ {
			s += float64(l.At(k, i) * out[k])
		}
		out[i] = (out[i] - s) / l.At(i, i)
	}
}
