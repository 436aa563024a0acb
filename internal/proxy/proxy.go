// Package proxy implements the lightweight transferability scores of the
// coarse-recall phase. The paper adopts LEEP (Nguyen et al., ICML 2020);
// NCE and a kNN probe are provided as the alternatives discussed in §VI,
// and Ensemble combines several scorers (the §VII future-work extension).
//
// All scorers consume only frozen-model inference on the target training
// split — no gradient steps — which is why the framework charges them half
// a training epoch each (§V.D).
//
// That inference is not request work: the extractor and the source head
// are frozen, so a (model, split) pair has one feature frame and one frame
// of source-head distributions, both held by the model's feature cache
// (modelhub.Model.FeatureFrame / SourceDistributions) while the split stays
// cached. A score reads a prefix view of them and pays only for its own
// statistics over (distributions, labels); the ledger charge is unchanged.
//
// Recall's default scorer, CalibratedLEEP, makes its real LEEP pass and
// its two null passes in one sweep over the distributions (leepSweep),
// bit for bit three separate passes; plain LEEP is the real pass of the
// same sweep.
package proxy

import (
	"fmt"
	"math"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
)

// Scorer predicts the post-fine-tuning performance of a model on a target
// dataset without training. Higher is better; scales differ per scorer, so
// callers normalize across the scored set (as Eq. 2 prescribes).
type Scorer interface {
	// Name identifies the scorer in reports and ablations.
	Name() string
	// Score evaluates the model against the dataset's training split.
	Score(m *modelhub.Model, d *datahub.Dataset) (float64, error)
}

// maxExamples caps how many target examples each scorer consumes; the
// paper notes a few hundred items suffice ("a target dataset with hundreds
// of data items", §III.A).
const maxExamples = 200

// LEEP is the log expected empirical prediction score. It builds the
// empirical joint distribution P(target label y, source label z) from the
// source head's soft predictions, forms the conditional P(y|z), and
// returns the mean log-likelihood of the resulting "expected empirical
// predictor" on the target data.
type LEEP struct{}

// Name implements Scorer.
func (LEEP) Name() string { return "leep" }

// Score implements Scorer: the real pass of a LEEP sweep over the real
// labels alone.
func (LEEP) Score(m *modelhub.Model, d *datahub.Dataset) (float64, error) {
	theta, ys, err := sourceSample(m, d)
	if err != nil {
		return 0, err
	}
	return leepSweep(theta, d.Classes, m.SourceClasses, [3][]int{ys, ys, ys})[0], nil
}

// CalibratedLEEP is LEEP minus its permutation-null baseline: the mean
// LEEP the model scores on the same inputs over two shuffles of the target
// labels. The null term captures how much likelihood the model earns
// purely from the capacity of its source label space (a 30-way head always
// builds a richer empirical predictor than a binary one); subtracting it
// leaves the label information — the transferability signal. This
// calibration is a necessary adaptation of the paper's plain LEEP to a
// repository whose source label spaces span 2-50 classes; the ablProxy
// experiment compares the two.
type CalibratedLEEP struct{}

// Name implements Scorer.
func (CalibratedLEEP) Name() string { return "leep-calibrated" }

// Score implements Scorer. The real pass and both null passes are one
// LEEP sweep over the source-head distributions.
func (CalibratedLEEP) Score(m *modelhub.Model, d *datahub.Dataset) (float64, error) {
	theta, ys, err := sourceSample(m, d)
	if err != nil {
		return 0, err
	}
	// Null shuffle p draws from stream p of "leep-null" and permutes the
	// labels as the one before it left them: the first shuffles the real
	// labels, the second the first's order. n <= maxExamples, so both fit
	// the fixed buffers.
	var buf [2][maxExamples]int
	labels := [3][]int{ys}
	for p := range buf {
		shuffled := buf[p][:len(ys)]
		copy(shuffled, labels[p])
		rng := numeric.NamedRNG(uint64(p), "leep-null", m.Name, d.Name)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		labels[p+1] = shuffled
	}
	leep := leepSweep(theta, d.Classes, m.SourceClasses, labels)
	// The mean compiles to a product by 0.5; converted like one, it cannot
	// fuse with the subtraction.
	return leep[0] - float64((leep[1]+leep[2])/2), nil
}

// leepSweep computes the LEEP statistic over the source-head distributions
// theta (one row per example) for each of the three label vectors: three
// passes in one sweep over theta. A pass builds the empirical joint
// P(y, z) in its table, the source marginal P(z), the conditional P(y|z)
// over the joint in place, and returns the mean log-likelihood of the
// expected empirical predictor, (1/n) sum_i log sum_z P(y_i|z) theta_i[z].
// theta has at least one row (sampleSize rejects an empty split).
//
// The passes share everything that does not depend on the labels: each
// quotient theta_i[z] / n is formed once, the tables fill in one walk over
// theta, each row's likelihoods are dot products on independent
// accumulators, and all statistics come from one allocation. Every sum
// adds the same operands in the same order as a pass of its own (the
// per-pass form is the tests' oracle), so each result is bit-identical to
// one, whatever the other two label vectors are.
func leepSweep(theta *numeric.Frame, targetK, sourceK int, labels [3][]int) [3]float64 {
	n := theta.N
	cells := targetK * sourceK
	slab := make([]float64, 3*(cells+sourceK))
	var tables [3]numeric.Matrix
	var marginals [3][]float64
	for p := range tables {
		tables[p] = numeric.Matrix{Rows: targetK, Cols: sourceK, Data: slab[p*cells : (p+1)*cells]}
		marginals[p] = slab[3*cells+p*sourceK : 3*cells+(p+1)*sourceK]
	}
	nf := float64(n)
	y0, y1, y2 := labels[0], labels[1], labels[2]

	// joint[y][z] = (1/n) sum_i theta_i[z] * 1{y_i = y}
	for i := 0; i < n; i++ {
		row := theta.Row(i)
		j0 := tables[0].Row(y0[i])[:len(row)]
		j1 := tables[1].Row(y1[i])[:len(row)]
		j2 := tables[2].Row(y2[i])[:len(row)]
		for z, t := range row {
			q := t / nf
			j0[z] += q
			j1[z] += q
			j2[z] += q
		}
	}
	for p := range tables {
		condition(tables[p], marginals[p])
	}

	// LEEP = (1/n) sum_i log( sum_z P(y_i|z) theta_i[z] )
	var total [3]float64
	for i := 0; i < n; i++ {
		row := theta.Row(i)
		c0 := tables[0].Row(y0[i])[:len(row)]
		c1 := tables[1].Row(y1[i])[:len(row)]
		c2 := tables[2].Row(y2[i])[:len(row)]
		var s0, s1, s2 float64
		for z, t := range row {
			s0 += float64(c0[z] * t)
			s1 += float64(c1[z] * t)
			s2 += float64(c2[z] * t)
		}
		total[0] += clampedLog(s0)
		total[1] += clampedLog(s1)
		total[2] += clampedLog(s2)
	}
	return [3]float64{total[0] / nf, total[1] / nf, total[2] / nf}
}

// condition rewrites a LEEP pass's joint table P(y, z) in place as the
// conditional P(y|z), accumulating the source marginal P(z) (zeroed by the
// caller) on the way; a source label no example puts mass on conditions
// to 0.
func condition(table numeric.Matrix, marginal []float64) {
	for y := 0; y < table.Rows; y++ {
		for z, p := range table.Row(y) {
			marginal[z] += p
		}
	}
	for y := 0; y < table.Rows; y++ {
		row := table.Row(y)
		for z, p := range row {
			c := 0.0
			if marginal[z] > 0 {
				c = p / marginal[z]
			}
			row[z] = c
		}
	}
}

// clampedLog is one example's log-likelihood term, its probability
// clamped away from 0 so a pass never sums a -Inf.
func clampedLog(p float64) float64 {
	if p < 1e-300 {
		p = 1e-300
	}
	return math.Log(p)
}

// NCE is the negative conditional entropy score (Tran et al., 2019): it
// hard-assigns each example to its argmax source label z and returns
// -H(Y|Z) of the empirical joint. Less smooth than LEEP but cheaper.
type NCE struct{}

// Name implements Scorer.
func (NCE) Name() string { return "nce" }

// Score implements Scorer.
func (NCE) Score(m *modelhub.Model, d *datahub.Dataset) (float64, error) {
	theta, ys, err := sourceSample(m, d)
	if err != nil {
		return 0, err
	}
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
	return nce, nil
}

// KNN scores a model by leave-one-out k-nearest-neighbour accuracy in its
// feature space (Renggli et al., 2022's probe, §VI). It approximates the
// accuracy a simple head could reach on the frozen features.
type KNN struct{}

// knnK is KNN's neighbourhood size.
const knnK = 5

// Name implements Scorer.
func (KNN) Name() string { return fmt.Sprintf("knn%d", knnK) }

// Score implements Scorer.
func (KNN) Score(m *modelhub.Model, d *datahub.Dataset) (float64, error) {
	feats, ys, err := sample(m, d)
	if err != nil {
		return 0, err
	}
	correct := 0
	type nb struct {
		dist  float64
		label int
	}
	for i := 0; i < feats.N; i++ {
		nbs := make([]nb, 0, feats.N-1)
		fi := feats.Row(i)
		for j := 0; j < feats.N; j++ {
			if j == i {
				continue
			}
			nbs = append(nbs, nb{numeric.EuclideanDistance(fi, feats.Row(j)), ys[j]})
		}
		// partial selection of the knnK nearest
		for a := 0; a < knnK && a < len(nbs); a++ {
			min := a
			for b := a + 1; b < len(nbs); b++ {
				if nbs[b].dist < nbs[min].dist {
					min = b
				}
			}
			nbs[a], nbs[min] = nbs[min], nbs[a]
		}
		votes := make(map[int]int)
		for a := 0; a < knnK && a < len(nbs); a++ {
			votes[nbs[a].label]++
		}
		best, bestN := -1, -1
		for label, n := range votes {
			if n > bestN || (n == bestN && label < best) {
				best, bestN = label, n
			}
		}
		if best == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(feats.N), nil
}

// Ensemble averages the raw scores of several scorers — the paper's §VII
// plan of combining light-weight tasks for robustness. Recall min-max
// normalizes proxy scores across the candidate set (Normalize), as it does
// for every Scorer.
type Ensemble struct {
	Scorers []Scorer
}

// Name implements Scorer.
func (e Ensemble) Name() string { return "ensemble" }

// Score implements Scorer by averaging raw member scores.
func (e Ensemble) Score(m *modelhub.Model, d *datahub.Dataset) (float64, error) {
	if len(e.Scorers) == 0 {
		return 0, fmt.Errorf("proxy: empty ensemble")
	}
	var s float64
	for _, sc := range e.Scorers {
		v, err := sc.Score(m, d)
		if err != nil {
			return 0, err
		}
		s += v
	}
	return s / float64(len(e.Scorers)), nil
}

// Normalize min-max rescales scores into [0, 1]. A constant slice maps to
// all 0.5 (no information either way).
func Normalize(scores []float64) []float64 {
	out := make([]float64, len(scores))
	if len(scores) == 0 {
		return out
	}
	lo, hi := scores[0], scores[0]
	for _, s := range scores[1:] {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if hi == lo {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for i, s := range scores {
		out[i] = (s - lo) / (hi - lo)
	}
	return out
}

// sample returns the model's features for up to maxExamples examples of
// the dataset's training split, plus their labels. Extraction goes
// through the model's shared feature cache over the full split — the
// same frame every trainer.Run of this (model, dataset) reuses — and the
// returned frame is a read-only view of its first rows.
func sample(m *modelhub.Model, d *datahub.Dataset) (*numeric.Frame, []int, error) {
	n, err := sampleSize(m, d)
	if err != nil {
		return nil, nil, err
	}
	return m.FeatureFrame(d.Train.X).Slice(0, n), d.Train.Y[:n], nil
}

// sourceSample is sample for the scorers that only see the model through
// its source head: the head's distributions over the same examples, a
// read-only view of the rows the model caches beside the split's features.
func sourceSample(m *modelhub.Model, d *datahub.Dataset) (*numeric.Frame, []int, error) {
	n, err := sampleSize(m, d)
	if err != nil {
		return nil, nil, err
	}
	return m.SourceDistributions(d.Train.X).Slice(0, n), d.Train.Y[:n], nil
}

// sampleSize validates the (model, dataset) pair and returns how many
// training examples a scorer consumes.
func sampleSize(m *modelhub.Model, d *datahub.Dataset) (int, error) {
	if m.Task != d.Task {
		return 0, fmt.Errorf("proxy: model %q task %q does not match dataset %q task %q", m.Name, m.Task, d.Name, d.Task)
	}
	n := d.Train.Len()
	if n == 0 {
		return 0, fmt.Errorf("proxy: dataset %q has empty training split", d.Name)
	}
	if n > maxExamples {
		n = maxExamples
	}
	return n, nil
}
