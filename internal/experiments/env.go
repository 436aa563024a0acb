// Package experiments regenerates every table and figure of the paper's
// evaluation (§V and the appendix) on top of the synthetic substrate. Each
// experiment is a pure function of a shared Env fixture and returns a
// Table whose rows mirror the paper's artifact.
package experiments

import (
	"context"

	"fmt"
	"sync"

	"twophase/internal/core"
	"twophase/internal/datahub"
)

// DefaultSeed is the world seed used across the evaluation.
const DefaultSeed = 42

// Env is the shared fixture: one built framework per task family plus a
// cache of oracle (brute-force ground truth) accuracies per target.
type Env struct {
	Seed uint64

	mu     sync.Mutex
	fw     map[string]*core.Framework
	oracle map[string]map[string]float64 // task+"\x00"+dataset -> model -> acc
}

// NewEnv returns a lazy environment; frameworks build on first use.
func NewEnv(seed uint64) *Env {
	return &Env{
		Seed:   seed,
		fw:     make(map[string]*core.Framework),
		oracle: make(map[string]map[string]float64),
	}
}

// Framework returns (building if necessary) the framework for a task.
func (e *Env) Framework(task string) (*core.Framework, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if fw, ok := e.fw[task]; ok {
		return fw, nil
	}
	fw, err := core.Build(core.Options{Task: task, Seed: e.Seed})
	if err != nil {
		return nil, err
	}
	e.fw[task] = fw
	return fw, nil
}

// Oracle returns the cached brute-force ground-truth accuracy of every
// repository model on the named dataset (which may be a target or a
// benchmark).
func (e *Env) Oracle(task, dataset string) (map[string]float64, error) {
	fw, err := e.Framework(task)
	if err != nil {
		return nil, err
	}
	key := task + "\x00" + dataset
	e.mu.Lock()
	if o, ok := e.oracle[key]; ok {
		e.mu.Unlock()
		return o, nil
	}
	e.mu.Unlock()

	d, err := fw.Catalog.Get(dataset)
	if err != nil {
		return nil, err
	}
	o, err := fw.OracleAccuracies(context.Background(), d)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.oracle[key] = o
	e.mu.Unlock()
	return o, nil
}

// Targets returns the four evaluation targets of a task family.
func (e *Env) Targets(task string) ([]*datahub.Dataset, error) {
	fw, err := e.Framework(task)
	if err != nil {
		return nil, err
	}
	return fw.Catalog.Targets(), nil
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	// ID is the name cmd/experiments' -only and -list use (fig1, tab5, ...).
	ID string
	// Paper names the reproduced artifact.
	Paper string
	// Run regenerates the artifact.
	Run func(*Env) (*Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Fig. 1: fine-tuning accuracy spread across the repository", fig1},
		{"tab1", "Table I: clustering methods comparison (silhouette)", table1},
		{"tab2", "Table II: model clustering memberships", table2},
		{"tab3", "Table III: singleton vs non-singleton performance", table3},
		{"fig3", "Fig. 3: top-10 validation/test curves on MNLI", fig3},
		{"fig4", "Fig. 4: one model's convergence groups over benchmarks", fig4},
		{"fig5", "Fig. 5: recalled-model accuracy, coarse vs random recall", fig5},
		{"fig6", "Fig. 6: trend clustering quality and prediction error", fig6},
		{"tab4", "Table IV: fine-selection filtering threshold sweep", table4},
		{"fig7", "Fig. 7: selected-model accuracy, SH vs FS", fig7},
		{"tab5", "Table V: selection runtime, BF vs SH vs FS", table5},
		{"tab6", "Table VI: end-to-end comparison (2PH vs BF vs SH)", table6},
		{"tab7", "Table VII: case study of recalled best models", table7},
		{"fig8", "Fig. 8: MNLI curves under the low learning rate", fig8},
		{"tabX", "Appendix Table X: Eq. 1 parameter k selection", tableX},
		{"ablTopK", "Ablation: Eq. 1 top-k distance vs Euclidean", ablationTopK},
		{"ablRep", "Ablation: representative scoring vs scoring all models", ablationRepresentative},
		{"ablTrend", "Ablation: convergence-trend filter on/off", ablationTrendFilter},
		{"ablProxy", "Ablation: proxy scorer choice in coarse recall", ablationProxy},
		{"ablSubset", "Ablation: offline matrix from reduced training data (§III.A)", ablationSubsetMatrix},
		{"extEnsemble", "Extension: top-3 soft-voting ensemble selection (§VII)", extEnsemble},
		{"extLSQ", "Extension: zero-epoch lsq proxy stage + recall pre-filter", extLSQ},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, ex := range All() {
		if ex.ID == id {
			return ex, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
