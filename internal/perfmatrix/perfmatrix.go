// Package perfmatrix builds the paper's offline artifact: the performance
// matrix Matrix(D, M) — final test accuracy of every model fine-tuned on
// every benchmark dataset — together with the per-epoch validation curves
// that the fine-selection phase mines for convergence trends (§II.B
// "Offline"). Those two are all selection reads of a run, so they are all
// a Matrix keeps. The convergence trends Eq. 5–6 match against are mined
// from those curves on first use (Matrix.Trends) and never persisted; a
// Matrix's one on-disk encoding belongs to internal/artifact.
package perfmatrix

import (
	"context"
	"fmt"
	"sync"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/trainer"
)

// Matrix is the performance matrix plus convergence records for one task
// family, as two flat arrays in one cell order, model-major and
// dataset-minor: cell (i, j), Models[i] fine-tuned on Datasets[j], is
// c = i*len(Datasets)+j. Val holds each cell's validation curve, E =
// HP.Epochs words from Val[c*E]; Test holds each cell's final test
// accuracy at Test[c]. Model and dataset orders are fixed at build time so
// performance vectors are comparable. Seed, HP and Sizes record the provenance of the runs — the
// world seed, training hyperparameters and benchmark split sizes — so a
// persisted matrix can be checked against the world a loader expects
// instead of silently steering selection with foreign curves.
type Matrix struct {
	Task     string
	Models   []string
	Datasets []string
	Seed     uint64
	HP       trainer.Hyperparams
	Sizes    datahub.Sizes
	Val      []float64 // len(Models)*len(Datasets)*HP.Epochs validation accuracies
	Test     []float64 // len(Models)*len(Datasets) final test accuracies
	// trends is Trends' table, model-major and stage-minor, mined on
	// the first call under trendsOnce.
	trends     [][]Trend
	trendsOnce sync.Once
}

// Build fine-tunes every model in the repository on every benchmark
// dataset with the given hyperparameters. Cells train concurrently under
// the workers budget (fanout's width) via trainer.FineTuneGrid,
// which preassigns every result to its (model, dataset) cell and reports
// the first error in index order — the matrix, and any build failure, is
// bit-identical for every worker count.
func Build(repo *modelhub.Repository, benchmarks []*datahub.Dataset, hp trainer.Hyperparams, seed uint64, workers int) (*Matrix, error) {
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("perfmatrix: no benchmark datasets")
	}
	models := repo.Models()
	m := &Matrix{
		Task: repo.Task,
		Seed: seed,
		HP:   hp,
		Sizes: datahub.Sizes{
			Train: benchmarks[0].Train.Len(),
			Val:   benchmarks[0].Val.Len(),
			Test:  benchmarks[0].Test.Len(),
		},
		Val:  make([]float64, 0, len(models)*len(benchmarks)*hp.Epochs),
		Test: make([]float64, 0, len(models)*len(benchmarks)),
	}
	for _, mod := range models {
		m.Models = append(m.Models, mod.Name)
	}
	for _, d := range benchmarks {
		if !d.Benchmark {
			return nil, fmt.Errorf("perfmatrix: dataset %q is not a benchmark dataset", d.Name)
		}
		m.Datasets = append(m.Datasets, d.Name)
	}

	curves, err := trainer.FineTuneGrid(context.Background(), models, benchmarks, hp, seed, "offline-matrix", workers)
	if err != nil {
		return nil, err
	}
	// FineTuneGrid's order is the matrix's cell order.
	for _, c := range curves {
		m.Val = append(m.Val, c.Val...)
		m.Test = append(m.Test, c.Test)
	}
	return m, nil
}

// Vector returns row i of the matrix — model i's final test accuracy on
// every benchmark, in dataset order: its |D|-dimensional performance
// vector vec(m_j) of §III.A. The row is a view of Test; callers must not
// write to it.
func (m *Matrix) Vector(i int) []float64 {
	nD := len(m.Datasets)
	return m.Test[i*nD : (i+1)*nD : (i+1)*nD]
}

// Vectors returns a copy of every model's performance vector as one
// frame, row i for model i: the points coarse recall clusters.
func (m *Matrix) Vectors() *numeric.Frame {
	return &numeric.Frame{N: len(m.Models), D: len(m.Datasets), Data: numeric.Clone(m.Test)}
}

// AvgAcc returns acc(m_j) of model i: its mean final test accuracy across
// all benchmark datasets (the prior-capability term of Eq. 2).
func (m *Matrix) AvgAcc(i int) float64 { return numeric.Mean(m.Vector(i)) }

// ValAt returns model i's validation accuracy on every benchmark after
// epoch stage+1 (0 <= stage < HP.Epochs), in dataset order: the points
// convergence-trend mining clusters at that stage.
func (m *Matrix) ValAt(i, stage int) []float64 {
	nD, ep := len(m.Datasets), m.HP.Epochs
	out := make([]float64, nD)
	for j := range out {
		c := (i*nD + j) * ep
		out[j] = m.Val[c : c+ep][stage] // a stage past the curve panics, never reads the next cell
	}
	return out
}
