// Package lsq implements the closed-form least-squares proxy stage: a
// ridge-regression head fit on each candidate model's cached feature
// frame. One GEMM assembles the normal equations, one small Cholesky
// factorization solves them — zero training epochs per candidate, which
// is the whole point: the ROADMAP's "closed-form least-squares proxy
// stage" answers latency-critical requests without spending an epoch and
// prunes the candidate set before SH/two-phase spend any.
//
// Every reduction follows numeric's determinism rule (single accumulator,
// ascending index order): the normal equations are assembled with the
// existing MulFrame kernels and solved by numeric.CholeskyFactor/Solve,
// so scores are bit-reproducible across worker counts and serving paths.
package lsq

import (
	"context"
	"errors"
	"fmt"

	"twophase/internal/datahub"
	"twophase/internal/fanout"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/trainer"
)

// lambda is the ridge strength. It is scaled by the training-split size
// at fit time, so the effective regularizer tracks the Gram matrix's
// magnitude across split sizes. The bias column is regularized like every
// other column — simpler, and the head is a proxy score, not a served
// predictor.
const lambda = 1e-2

// Options tunes a ranking pass.
type Options struct {
	// Workers bounds how many candidates fit concurrently (fanout's
	// width: 0 or less is one per CPU, 1 is sequential). Results are
	// bit-identical across settings — each model's fit is independent and
	// writes a preassigned slot.
	Workers int
}

// Result is a ranking of a candidate pool by closed-form head quality, in
// pool order.
type Result struct {
	// Names are the candidate model names, in input pool order.
	Names []string
	// Val and Test are each candidate head's validation and held-out test
	// accuracy, aligned with Names. Selection reads Val; Test is reported
	// for the finished choice only, like every other strategy.
	Val  []float64
	Test []float64
}

// Best returns the index of the highest validation accuracy; ties keep
// the earlier pool position, mirroring the training strategies.
func (r *Result) Best() int {
	best, bestVal := 0, -1.0
	for i, v := range r.Val {
		if v > bestVal {
			best, bestVal = i, v
		}
	}
	return best
}

// TopK returns the names of the k best candidates by validation accuracy
// (ties keep the earlier pool position), reordered to input pool order so
// downstream searches see the same deterministic pool they would have
// seen unfiltered. k >= len returns every name.
func (r *Result) TopK(k int) []string {
	if k >= len(r.Names) {
		return append([]string(nil), r.Names...)
	}
	order := numeric.ArgSortDesc(r.Val)
	keep := make(map[int]bool, k)
	for _, i := range order[:k] {
		keep[i] = true
	}
	out := make([]string, 0, k)
	for i, n := range r.Names {
		if keep[i] {
			out = append(out, n)
		}
	}
	return out
}

// Rank fits the ridge head for every candidate and charges the ledger one
// proxy-inference unit (0.5 epoch) per scored model — the same rate the
// coarse-recall proxies pay, and the only cost this stage ever incurs:
// no training epochs are charged, ever. A canceled context aborts between
// candidates with ctx.Err().
func Rank(ctx context.Context, models []*modelhub.Model, d *datahub.Dataset, opts Options, ledger *trainer.Ledger) (*Result, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("lsq: empty model pool")
	}
	res := &Result{
		Names: make([]string, len(models)),
		Val:   make([]float64, len(models)),
		Test:  make([]float64, len(models)),
	}
	for i, m := range models {
		res.Names[i] = m.Name
	}
	err := fanout.Each(ctx, len(models), opts.Workers, func(i int) (err error) {
		res.Val[i], res.Test[i], err = fit(models[i], d)
		return err
	})
	if err != nil {
		var p *fanout.Panic
		if errors.As(err, &p) {
			err = fmt.Errorf("lsq: fitting %q on %q: %w", res.Names[p.Index], d.Name, err)
		}
		return nil, err
	}
	// Charged once, after the barrier, like trainStage: ledger contents
	// never depend on goroutine scheduling.
	if ledger != nil {
		ledger.ChargeInference(len(models))
	}
	return res, nil
}

// fit solves the ridge head for one candidate on the target's training
// split and reports the head's validation and test accuracy. The feature
// frames come out of the model's shared extraction cache (the same frames
// every trainer.Run and proxy scorer of this (model, dataset) reuses), so
// a fit after any other strategy touches the target extracts nothing.
func fit(m *modelhub.Model, d *datahub.Dataset) (val, test float64, err error) {
	if m.Task != d.Task {
		return 0, 0, fmt.Errorf("lsq: model %q task %q does not match dataset %q task %q", m.Name, m.Task, d.Name, d.Task)
	}
	n := d.Train.Len()
	if n == 0 {
		return 0, 0, fmt.Errorf("lsq: dataset %q has empty training split", d.Name)
	}
	feats := m.FeatureFrame(d.Train.X)
	dim := feats.D + 1 // +1 bias column

	// Assemble the normal equations with the existing MulFrame kernel.
	// MulFrame computes out[i][r] = M.Row(r) · x.Row(i); feeding it the
	// transposed augmented design T (dim × n) as both the matrix and the
	// frame yields out[i][r] = Σ_j T[r][j]·T[i][j] = (XᵀX)[r][i] — the
	// Gram matrix, every element a single ascending-order accumulation.
	tdata := make([]float64, dim*n)
	for j := 0; j < n; j++ {
		row := feats.Row(j)
		for i, v := range row {
			tdata[i*n+j] = v
		}
		tdata[feats.D*n+j] = 1
	}
	tm := &numeric.Matrix{Rows: dim, Cols: n, Data: tdata}
	tf := &numeric.Frame{N: dim, D: n, Data: tdata}
	gram := numeric.NewFrame(dim, dim)
	tm.MulFrame(tf, gram)

	// Right-hand side XᵀY for one-hot targets, via the same kernel: the
	// label matrix Yᵀ (classes × n) against the transposed design.
	classes := d.Classes
	yt := numeric.NewMatrix(classes, n)
	for j, y := range d.Train.Y {
		yt.Set(y, j, 1)
	}
	rhs := numeric.NewFrame(dim, classes)
	yt.MulFrame(tf, rhs)

	// Ridge shift and factorization. λ·n keeps the conditioning of the
	// shifted Gram stable across split sizes; with λ > 0 the matrix is
	// positive definite, so the factorization cannot fail on real input.
	a := &numeric.Matrix{Rows: dim, Cols: dim, Data: gram.Data}
	shift := float64(lambda * float64(n))
	for i := 0; i < dim; i++ {
		a.Set(i, i, a.At(i, i)+shift)
	}
	if err := numeric.CholeskyFactor(a); err != nil {
		return 0, 0, fmt.Errorf("lsq: %s on %s: %w", m.Name, d.Name, err)
	}

	// One solve per class; the head is stored classes × feats.D plus a
	// bias vector so evaluation rides the fused MulFrameBias kernel.
	head := numeric.NewMatrix(classes, feats.D)
	bias := make([]float64, classes)
	b := make([]float64, dim)
	w := make([]float64, dim)
	for c := 0; c < classes; c++ {
		for i := 0; i < dim; i++ {
			b[i] = rhs.At(i, c)
		}
		numeric.CholeskySolve(a, b, w)
		copy(head.Row(c), w[:feats.D])
		bias[c] = w[feats.D]
	}

	return accuracy(m, head, bias, d.Val), accuracy(m, head, bias, d.Test), nil
}

// accuracy scores the closed-form head on one split: fraction of rows
// whose argmax matches the label. Ties resolve to the lower class index
// (numeric.ArgMax), deterministically.
func accuracy(m *modelhub.Model, head *numeric.Matrix, bias []float64, split datahub.Split) float64 {
	n := split.Len()
	if n == 0 {
		return 0
	}
	feats := m.FeatureFrame(split.X)
	logits := numeric.NewFrame(n, head.Rows)
	head.MulFrameBias(feats, bias, logits)
	correct := 0
	for i := 0; i < n; i++ {
		if numeric.ArgMax(logits.Row(i)) == split.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
