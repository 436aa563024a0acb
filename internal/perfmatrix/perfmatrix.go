// Package perfmatrix builds the paper's offline artifact: the performance
// matrix Matrix(D, M) — final test accuracy of every model fine-tuned on
// every benchmark dataset — together with the full per-epoch
// validation/test curves that the fine-selection phase mines for
// convergence trends (§II.B "Offline"). A Matrix is plain data; its one
// on-disk encoding belongs to internal/artifact.
package perfmatrix

import (
	"context"
	"fmt"
	"sync"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/trainer"
)

// Entry records one offline fine-tuning run of a model on a benchmark
// dataset.
type Entry struct {
	Model   string    `json:"model"`
	Dataset string    `json:"dataset"`
	Val     []float64 `json:"val"`  // per-epoch validation accuracy
	Test    []float64 `json:"test"` // per-epoch test accuracy
}

// FinalTest returns the end-of-training test accuracy.
func (e *Entry) FinalTest() float64 {
	if len(e.Test) == 0 {
		return 0
	}
	return e.Test[len(e.Test)-1]
}

// Matrix is the performance matrix plus convergence records for one task
// family. Model and dataset orders are fixed at build time so performance
// vectors are comparable. Seed, HP and Sizes record the provenance of the
// runs — the world seed, training hyperparameters and benchmark split
// sizes — so a persisted matrix can be checked against the world a loader
// expects instead of silently steering selection with foreign curves.
type Matrix struct {
	Task     string              `json:"task"`
	Models   []string            `json:"models"`
	Datasets []string            `json:"datasets"`
	Epochs   int                 `json:"epochs"`
	Seed     uint64              `json:"seed"`
	HP       trainer.Hyperparams `json:"hp"`
	Sizes    datahub.Sizes       `json:"sizes"`
	Entries  map[string]*Entry   `json:"entries"` // keyed by model + "\x00" + dataset
	memo     sync.Map            // Memo's table: key -> *memoEntry
}

// memoEntry is one memoised derivation; once makes concurrent first
// askers share a single computation.
type memoEntry struct {
	once sync.Once
	val  any
	err  error
}

// Memo returns what compute returned the first time key was asked of this
// matrix, running compute exactly once per key however many goroutines
// ask. It is where consumers keep data mined from the matrix alone (the
// fine-selection phase's convergence trends): the memo lives on the matrix,
// so it is shared by everything selecting over that matrix and is
// collected with it — a process that restores and drops worlds retains
// nothing. The matrix must not change after the first call, and callers
// must treat the shared value as read-only. Keys follow the context.Value
// convention: comparable, of a type private to the consumer.
func (m *Matrix) Memo(key any, compute func() (any, error)) (any, error) {
	v, ok := m.memo.Load(key)
	if !ok {
		v, _ = m.memo.LoadOrStore(key, new(memoEntry))
	}
	e := v.(*memoEntry)
	e.once.Do(func() { e.val, e.err = compute() })
	return e.val, e.err
}

func key(model, dataset string) string { return model + "\x00" + dataset }

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
	m := &Matrix{
		Task:   repo.Task,
		Epochs: hp.Epochs,
		Seed:   seed,
		HP:     hp,
		Sizes: datahub.Sizes{
			Train: benchmarks[0].Train.Len(),
			Val:   benchmarks[0].Val.Len(),
			Test:  benchmarks[0].Test.Len(),
		},
		Entries: make(map[string]*Entry, repo.Len()*len(benchmarks)),
	}
	models := repo.Models()
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
	for mi, mod := range models {
		for di, d := range benchmarks {
			curve := curves[mi*len(benchmarks)+di]
			m.Entries[key(mod.Name, d.Name)] = &Entry{
				Model:   mod.Name,
				Dataset: d.Name,
				Val:     curve.Val,
				Test:    curve.Test,
			}
		}
	}
	return m, nil
}

// Entry returns the run record for (model, dataset).
func (m *Matrix) Entry(model, dataset string) (*Entry, error) {
	e, ok := m.Entries[key(model, dataset)]
	if !ok {
		return nil, fmt.Errorf("perfmatrix: no entry for model %q on dataset %q", model, dataset)
	}
	return e, nil
}

// Perf returns p(dataset | model): the final test accuracy of the model
// fine-tuned on the benchmark dataset.
func (m *Matrix) Perf(model, dataset string) (float64, error) {
	e, err := m.Entry(model, dataset)
	if err != nil {
		return 0, err
	}
	return e.FinalTest(), nil
}

// Vector returns the model's |D|-dimensional performance vector in the
// matrix's dataset order (vec(m_j) of §III.A).
func (m *Matrix) Vector(model string) ([]float64, error) {
	v := make([]float64, len(m.Datasets))
	for i, d := range m.Datasets {
		p, err := m.Perf(model, d)
		if err != nil {
			return nil, err
		}
		v[i] = p
	}
	return v, nil
}

// AvgAcc returns acc(m_j): the model's mean final test accuracy across all
// benchmark datasets (the prior-capability term of Eq. 2).
func (m *Matrix) AvgAcc(model string) (float64, error) {
	v, err := m.Vector(model)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v)), nil
}

// ValCurves returns, for one model, the per-benchmark validation curves
// and final test accuracies — the raw material of convergence-trend
// mining. Curves are returned in the matrix's dataset order.
func (m *Matrix) ValCurves(model string) (val [][]float64, finalTest []float64, err error) {
	for _, d := range m.Datasets {
		e, err := m.Entry(model, d)
		if err != nil {
			return nil, nil, err
		}
		val = append(val, e.Val)
		finalTest = append(finalTest, e.FinalTest())
	}
	return val, finalTest, nil
}
