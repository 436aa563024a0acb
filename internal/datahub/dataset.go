// Package datahub defines the dataset side of the synthetic world: the
// registry of benchmark and target datasets (carrying the paper's dataset
// names and appendix metadata) and the generator that materializes each
// dataset as a labelled Gaussian-mixture classification task inside its
// domain subspace.
package datahub

import (
	"fmt"
	"math"

	"twophase/internal/numeric"
	"twophase/internal/synth"
)

// Spec describes a dataset before materialization.
type Spec struct {
	// Name is the dataset identifier (the paper's HuggingFace name).
	Name string
	// Task is "nlp" or "cv".
	Task string
	// Domains is the semantic domain mixture of the dataset.
	Domains map[string]float64
	// Classes is the size of the label space.
	Classes int
	// Separability scales the spread of class means; larger is easier.
	Separability float64
	// Noise is the per-example isotropic noise standard deviation.
	Noise float64
	// Imbalance is the Zipf exponent of the label distribution
	// (0 = balanced, larger = more skewed).
	Imbalance float64
	// Benchmark marks datasets used to build the offline performance
	// matrix; the rest are evaluation targets.
	Benchmark bool
	// Description is a short human-readable summary (from the appendix).
	Description string
}

// Sizes fixes the number of examples per split.
type Sizes struct {
	Train, Val, Test int
}

// DefaultSizes are used when the caller passes a zero Sizes value. They are
// deliberately small: the trainer is a linear probe, so a few hundred
// examples per split already yield stable accuracies while keeping the
// full 40x24 + 30x10 offline matrix cheap to rebuild.
var DefaultSizes = Sizes{Train: 240, Val: 200, Test: 320}

// Split is a labelled set of examples. X is a contiguous row-major frame
// (one example per row), so training and feature-extraction kernels
// stream it linearly; X.Row(i) is example i.
type Split struct {
	X *numeric.Frame
	Y []int
}

// Len returns the number of examples in the split.
func (s Split) Len() int { return len(s.Y) }

// SplitsPerDataset is how many splits a Dataset carries: Train, Val, Test.
const SplitsPerDataset = 3

// Dataset is a materialized dataset: spec plus train/val/test splits and
// the true class means (kept for diagnostics and property tests).
type Dataset struct {
	Spec
	Train, Val, Test Split
	Centers          *numeric.Matrix // Classes x InputDim
}

// Generate materializes the spec inside the world. All randomness derives
// from (world seed, dataset name), so repeated calls return identical data.
func Generate(w *synth.World, spec Spec, sizes Sizes) (*Dataset, error) {
	if spec.Classes < 2 {
		return nil, fmt.Errorf("datahub: dataset %q needs >= 2 classes, got %d", spec.Name, spec.Classes)
	}
	if sizes == (Sizes{}) {
		sizes = DefaultSizes
	}
	if sizes.Train <= 0 || sizes.Val <= 0 || sizes.Test <= 0 {
		return nil, fmt.Errorf("datahub: dataset %q has non-positive split size %+v", spec.Name, sizes)
	}

	rng := numeric.NewNamedRNG(w.Seed, "dataset", spec.Name)
	mix := synth.WithCore(spec.Domains, spec.Task, 0.25)

	// Class means live in the span of the dataset's domain mixture. The
	// crowding factor widens many-class datasets: packing 20 classes into
	// a rank-6 subspace needs proportionally larger spread for the same
	// per-pair separability as a binary task.
	rank := synth.DomainRank
	crowding := 1 + float64(0.28*math.Log2(float64(spec.Classes)/2))
	sep := spec.Separability * crowding
	dirs := w.MixtureDirections(mix, rank, rng)
	centers := numeric.NewMatrix(spec.Classes, synth.InputDim)
	for c := 0; c < spec.Classes; c++ {
		row := centers.Row(c)
		for j := 0; j < rank; j++ {
			numeric.AddScaled(row, rng.Norm()*sep, dirs.Row(j))
		}
	}

	probs := labelProbs(spec.Classes, spec.Imbalance)
	d := &Dataset{Spec: spec, Centers: centers}
	d.Train = sampleSplit(rng, centers, probs, spec.Noise, sizes.Train)
	d.Val = sampleSplit(rng, centers, probs, spec.Noise, sizes.Val)
	d.Test = sampleSplit(rng, centers, probs, spec.Noise, sizes.Test)
	return d, nil
}

// labelProbs returns the label distribution: uniform for imbalance 0,
// otherwise Zipf-like with the given exponent.
func labelProbs(classes int, imbalance float64) []float64 {
	p := make([]float64, classes)
	var sum float64
	for c := range p {
		p[c] = math.Pow(float64(c+1), -imbalance)
		sum += p[c]
	}
	for c := range p {
		p[c] /= sum
	}
	return p
}

func sampleSplit(rng *numeric.RNG, centers *numeric.Matrix, probs []float64, noise float64, n int) Split {
	s := Split{X: numeric.NewFrame(n, synth.InputDim), Y: make([]int, n)}
	for i := 0; i < n; i++ {
		y := sampleLabel(rng, probs)
		x := s.X.Row(i)
		copy(x, centers.Row(y))
		for j := range x {
			x[j] += float64(rng.Norm() * noise)
		}
		s.Y[i] = y
	}
	return s
}

func sampleLabel(rng *numeric.RNG, probs []float64) int {
	u := rng.Float64()
	var acc float64
	for c, p := range probs {
		acc += p
		if u < acc {
			return c
		}
	}
	return len(probs) - 1
}
