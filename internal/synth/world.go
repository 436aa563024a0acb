// Package synth implements the synthetic transfer-learning world that
// substitutes for the paper's HuggingFace substrate.
//
// The world assigns every semantic domain ("nli", "sentiment",
// "natural-img", ...) a low-dimensional basis inside the shared input
// space. Datasets place their class structure inside the span of their
// domain mixture; simulated pre-trained models attend preferentially to the
// span of theirs. Transfer quality is therefore an emergent function of
// domain overlap, exactly the causal mechanism the paper's framework
// exploits.
package synth

import (
	"sort"
	"sync"

	"twophase/internal/numeric"
)

const (
	// InputDim is the dimensionality of raw example vectors.
	InputDim = 32
	// DomainRank is the number of basis directions spanned by one domain.
	DomainRank = 6
)

// coreDomain returns the name of the always-present generic domain for a
// task family ("nlp" or "cv"). It models the generic linguistic / visual
// features that every pre-trained model shares, which keeps all models
// above chance and lets strong generic models transfer broadly.
func coreDomain(task string) string { return "_core_" + task }

// World owns the domain bases. It is safe for concurrent use.
type World struct {
	Seed uint64

	mu    sync.RWMutex
	basis map[string]*numeric.Matrix
}

// NewWorld returns a world whose every stochastic choice derives from seed.
func NewWorld(seed uint64) *World {
	return &World{Seed: seed, basis: make(map[string]*numeric.Matrix)}
}

// DomainBasis returns the DomainRank x InputDim orthonormal basis of the
// named domain. The basis is derived deterministically from the world seed
// and the domain name, and cached.
func (w *World) DomainBasis(name string) *numeric.Matrix {
	// Bases are immutable once built and the map is read-mostly (every
	// model/dataset materialization hits it), so reads take the shared
	// lock and only a miss upgrades to the exclusive one.
	w.mu.RLock()
	b, ok := w.basis[name]
	w.mu.RUnlock()
	if ok {
		return b
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if b, ok := w.basis[name]; ok {
		return b
	}
	rng := numeric.NewNamedRNG(w.Seed, "domain-basis", name)
	b = numeric.RandomMatrix(rng, DomainRank, InputDim, 1)
	numeric.GramSchmidt(b, rng)
	w.basis[name] = b
	return b
}

// MixtureDirections draws n unit directions from the span of the weighted
// domain mixture. Each direction is a weighted random combination of the
// mixture's domain basis vectors; rng controls the draw so that two
// entities with the same mixture still own distinct (but overlapping-span)
// directions.
func (w *World) MixtureDirections(mix map[string]float64, n int, rng *numeric.RNG) *numeric.Matrix {
	names := make([]string, 0, len(mix))
	for name := range mix {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic iteration order

	dirs := numeric.NewMatrix(n, InputDim)
	for i := 0; i < n; i++ {
		row := dirs.Row(i)
		for _, name := range names {
			weight := mix[name]
			if weight <= 0 {
				continue
			}
			b := w.DomainBasis(name)
			for j := 0; j < b.Rows; j++ {
				numeric.AddScaled(row, weight*rng.Norm(), b.Row(j))
			}
		}
		numeric.Normalize(row)
	}
	return dirs
}

// normalizeMixture returns a copy of mix scaled so the weights sum to 1.
// An empty or all-zero mixture returns an empty map. The total accumulates
// in sorted key order: float sums are order-sensitive in the last ULP, and
// map iteration order would otherwise leak into every derived weight,
// breaking bit-reproducibility across processes.
func normalizeMixture(mix map[string]float64) map[string]float64 {
	names := make([]string, 0, len(mix))
	for k := range mix {
		names = append(names, k)
	}
	sort.Strings(names)
	var total float64
	for _, k := range names {
		if v := mix[k]; v > 0 {
			total += v
		}
	}
	out := make(map[string]float64, len(mix))
	if total == 0 {
		return out
	}
	for k, v := range mix {
		if v > 0 {
			out[k] = v / total
		}
	}
	return out
}

// WithCore returns the mixture augmented with the task's core domain at
// the given weight, renormalized. The input map is not modified.
func WithCore(mix map[string]float64, task string, coreWeight float64) map[string]float64 {
	out := make(map[string]float64, len(mix)+1)
	for k, v := range mix {
		out[k] = v
	}
	out[coreDomain(task)] += coreWeight
	return normalizeMixture(out)
}
