package proxy

import (
	"math"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/synth"
)

// The reference implementations below are the scorers as they were before
// source-head distributions moved into the model's feature cache: one
// SourceProbsFrame pass over the sampled feature prefix per score, fresh
// statistics buffers per LEEP pass. The cached path must reproduce them
// bit for bit. Like the scorers, they write every product that feeds an
// add (or a subtraction) as float64(a*b), so no architecture fuses it and
// they hold as oracles on arm64 too; referenceLEEP is also the LEEP
// sweep's per-pass oracle.

func referenceTheta(m *modelhub.Model, d *datahub.Dataset) (*numeric.Frame, []int) {
	n := d.Train.Len()
	if n > maxExamples {
		n = maxExamples
	}
	feats := m.FeatureFrame(d.Train.X).Slice(0, n)
	theta := numeric.NewFrame(feats.N, m.SourceClasses)
	m.SourceProbsFrame(feats, theta)
	return theta, d.Train.Y[:n]
}

func referenceLEEP(theta *numeric.Frame, ys []int, targetK, sourceK int) float64 {
	n := theta.N
	joint := numeric.NewMatrix(targetK, sourceK)
	for i := 0; i < n; i++ {
		row := joint.Row(ys[i])
		for z, p := range theta.Row(i) {
			row[z] += p / float64(n)
		}
	}
	marginal := make([]float64, sourceK)
	for y := 0; y < targetK; y++ {
		for z, p := range joint.Row(y) {
			marginal[z] += p
		}
	}
	cond := numeric.NewMatrix(targetK, sourceK)
	for y := 0; y < targetK; y++ {
		for z := 0; z < sourceK; z++ {
			if marginal[z] > 0 {
				cond.Set(y, z, joint.At(y, z)/marginal[z])
			}
		}
	}
	var total float64
	for i := 0; i < n; i++ {
		var p float64
		row := cond.Row(ys[i])
		for z, t := range theta.Row(i) {
			p += float64(row[z] * t)
		}
		if p < 1e-300 {
			p = 1e-300
		}
		total += math.Log(p)
	}
	return total / float64(n)
}

func referenceCalibratedLEEP(m *modelhub.Model, d *datahub.Dataset) float64 {
	theta, ys := referenceTheta(m, d)
	real := referenceLEEP(theta, ys, d.Classes, m.SourceClasses)
	const perms = 2
	shuffled := append([]int(nil), ys...)
	var null float64
	for p := 0; p < perms; p++ {
		rng := numeric.NewNamedRNG(uint64(p), "leep-null", m.Name, d.Name)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		null += referenceLEEP(theta, shuffled, d.Classes, m.SourceClasses)
	}
	return real - float64(null/perms)
}

func referenceNCE(m *modelhub.Model, d *datahub.Dataset) float64 {
	theta, ys := referenceTheta(m, d)
	n := theta.N
	joint := numeric.NewMatrix(d.Classes, m.SourceClasses)
	for i := 0; i < n; i++ {
		z := numeric.ArgMax(theta.Row(i))
		joint.Set(ys[i], z, joint.At(ys[i], z)+1/float64(n))
	}
	marginal := make([]float64, m.SourceClasses)
	for y := 0; y < d.Classes; y++ {
		for z, p := range joint.Row(y) {
			marginal[z] += p
		}
	}
	var nce float64
	for y := 0; y < d.Classes; y++ {
		for z, p := range joint.Row(y) {
			if p > 0 && marginal[z] > 0 {
				nce += float64(p * math.Log(p/marginal[z]))
			}
		}
	}
	return nce
}

// TestCachedDistributionsScoreBitIdentical: for every repository model on
// every catalog target of both task families, LEEP, CalibratedLEEP and NCE
// through the cached source-head distributions equal the per-request
// reference exactly — with a training split longer than maxExamples, so
// the scorers read a strict prefix of the cached rows, and with one
// shorter.
func TestCachedDistributionsScoreBitIdentical(t *testing.T) {
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		for _, train := range []int{maxExamples + 30, 70} {
			w := synth.NewWorld(42)
			cat, err := datahub.NewTaskCatalog(w, task, datahub.Sizes{Train: train, Val: 8, Test: 8})
			if err != nil {
				t.Fatal(err)
			}
			repo, err := modelhub.NewTaskRepository(w, task)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range cat.Targets() {
				for _, m := range repo.Models() {
					for _, c := range []struct {
						scorer Scorer
						want   float64
					}{
						{LEEP{}, func() float64 {
							theta, ys := referenceTheta(m, d)
							return referenceLEEP(theta, ys, d.Classes, m.SourceClasses)
						}()},
						{CalibratedLEEP{}, referenceCalibratedLEEP(m, d)},
						{NCE{}, referenceNCE(m, d)},
					} {
						// Twice: the pass that fills the cache and one
						// that reads it.
						for pass := 0; pass < 2; pass++ {
							got, err := c.scorer.Score(m, d)
							if err != nil {
								t.Fatal(err)
							}
							if math.Float64bits(got) != math.Float64bits(c.want) {
								t.Fatalf("%s train=%d: %s of %s on %s (pass %d) = %x, reference %x",
									task, train, c.scorer.Name(), m.Name, d.Name, pass, got, c.want)
							}
						}
					}
				}
			}
		}
	}
}
