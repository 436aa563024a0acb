// Package numeric provides the small dense linear-algebra kernel, the
// deterministic random-number generator, and the descriptive statistics
// used throughout the two-phase model-selection framework.
//
// Everything in this package is allocation-conscious and dependency-free;
// all randomness flows through RNG, a SplitMix64 generator that can be
// seeded from strings so that every entity in the synthetic world (models,
// datasets, training runs) owns an independent, reproducible stream.
package numeric

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator.
//
// SplitMix64 passes BigCrush, is trivially seedable, and — unlike the
// stdlib math/rand global source — gives the framework bit-for-bit
// reproducible experiments across platforms. The zero value is a valid
// generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// NewNamedRNG derives an independent stream from a base seed and a list of
// name parts. Identical (seed, parts) pairs always produce identical
// streams; distinct parts produce statistically independent streams.
func NewNamedRNG(seed uint64, parts ...string) *RNG {
	r := NamedRNG(seed, parts...)
	return &r
}

// NamedRNG is NewNamedRNG returning the generator by value, for callers
// that embed the RNG in a larger struct and cannot afford the heap
// allocation per run. The streams are identical to NewNamedRNG's.
func NamedRNG(seed uint64, parts ...string) RNG {
	// Inlined FNV-1a (same constants and byte order as hash/fnv.New64a),
	// kept hand-rolled so deriving a stream never heap-allocates a hasher
	// or byte-slice conversions on the hot candidate-run path.
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= fnvPrime64
		}
		h ^= 0x1f // separator so ("ab","c") != ("a","bc")
		h *= fnvPrime64
	}
	return RNG{state: seed ^ h}
}

// Uint64 returns the next raw 64-bit value of the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1). The quotient compiles to a
// product (by 2^-53), so it is converted like one: inlined into a caller
// that adds to it, it must not fuse with that add.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("numeric: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal deviate using the Box-Muller transform.
func (r *RNG) Norm() float64 {
	// Rejection-free polar-less Box-Muller; u1 in (0,1] avoids log(0).
	u1 := 1.0 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormVec fills a fresh vector of length n with standard normal deviates.
func (r *RNG) NormVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Norm()
	}
	return v
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	return r.PermInto(make([]int, n))
}

// PermInto fills p with a uniformly random permutation of [0, len(p)),
// drawing exactly the same stream values as Perm of the same length — it
// exists so hot loops can reuse one buffer across epochs without
// perturbing reproducibility.
func (r *RNG) PermInto(p []int) []int {
	n := len(p)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n indices in place using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
