package numeric

import "math"

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("numeric: Dot length mismatch")
	}
	var s float64
	for i, x := range a {
		s += float64(x * b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// Normalize scales v in place to unit Euclidean norm and returns v.
// A zero vector is left unchanged.
func Normalize(v []float64) []float64 {
	n := Norm2(v)
	if n == 0 {
		return v
	}
	for i := range v {
		v[i] /= n
	}
	return v
}

// AddScaled computes dst += alpha*src in place. It panics on length mismatch.
func AddScaled(dst []float64, alpha float64, src []float64) {
	if len(dst) != len(src) {
		panic("numeric: AddScaled length mismatch")
	}
	for i, x := range src {
		dst[i] += float64(alpha * x)
	}
}

// Scale multiplies v by alpha in place.
func Scale(v []float64, alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// CosineSimilarity returns the cosine of the angle between a and b,
// or 0 if either vector is zero.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// EuclideanDistance returns the L2 distance between a and b.
func EuclideanDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("numeric: EuclideanDistance length mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// Clone returns a fresh copy of v.
func Clone(v []float64) []float64 {
	c := make([]float64, len(v))
	copy(c, v)
	return c
}

// ArgMax returns the index of the largest element (first on ties).
// It panics on an empty slice.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		panic("numeric: ArgMax of empty slice")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// argMin returns the index of the smallest element (first on ties).
// It panics on an empty slice.
func argMin(v []float64) int {
	if len(v) == 0 {
		panic("numeric: argMin of empty slice")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] < v[best] {
			best = i
		}
	}
	return best
}

// Softmax writes the softmax of logits into out (which may alias logits)
// using the max-shift trick for numerical stability.
func Softmax(logits, out []float64) {
	if len(logits) != len(out) {
		panic("numeric: Softmax length mismatch")
	}
	if len(logits) == 0 {
		return
	}
	max := logits[0]
	for _, x := range logits[1:] {
		if x > max {
			max = x
		}
	}
	var sum float64
	for i, x := range logits {
		e := math.Exp(x - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}
