package experiments

import (
	"context"

	"twophase/internal/cluster"
	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/perfmatrix"
	"twophase/internal/recall"
	"twophase/internal/selection"
	"twophase/internal/synth"
)

// extEnsemble evaluates §VII's multi-model extension: ensemble the top-3
// fine-selection survivors by soft voting and compare against the single
// selected model on every target.
func extEnsemble(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Extension — ensemble selection (k=3 soft voting)",
		Header: []string{"dataset", "single acc", "ensemble acc", "best member", "epochs single", "epochs ensemble"},
	}
	const k, liftedMin = 3, 5
	var lifted int
	for _, tgt := range allTargets {
		fw, d, top, err := recalledTop(e, tgt.task, tgt.dataset)
		if err != nil {
			return nil, err
		}
		single, err := fineSelect(e, fw, d, top, selection.FineSelectOptions{})
		if err != nil {
			return nil, err
		}
		cand, err := fw.Repo.Subset(top)
		if err != nil {
			return nil, err
		}
		ens, err := selection.EnsembleSelect(context.Background(), cand.Models(), d, selection.FineSelectOptions{
			Config: selection.Config{HP: fw.HP, Seed: e.Seed, Salt: "two-phase"},
			Matrix: fw.Matrix,
		}, k)
		if err != nil {
			return nil, err
		}
		t.AddRow(tgt.label, single.WinnerTest, ens.WinnerTest, ens.BestMemberTest,
			single.Ledger.TrainEpochs(), ens.Ledger.TrainEpochs())
		if ens.WinnerTest >= single.WinnerTest {
			lifted++
		}
	}
	t.Claim("extEnsemble.lifts", lifted >= liftedMin, float64(lifted),
		"ensemble acc ≥ single acc on at least %d of the %d targets; value: targets where it holds", liftedMin, len(allTargets))
	return t, nil
}

// ablationSubsetMatrix verifies §III.A's claim that "the training
// performance on a subset of training data with relative small size could
// be enough": rebuild the offline matrix with half and a quarter of the
// training examples and measure how stable the model clustering stays
// (adjusted Rand index against the full-data clustering).
func ablationSubsetMatrix(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Ablation — offline matrix from reduced training data",
		Header: []string{"task", "train fraction", "ARI vs full", "non-singleton clusters"},
	}
	fractions := []float64{1.0, 0.5, 0.25}
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		fw, err := e.Framework(task)
		if err != nil {
			return nil, err
		}
		full := fw.Offline.Clustering
		for _, frac := range fractions {
			var cl cluster.Clustering
			if frac == 1.0 {
				cl = full
			} else {
				sizes := datahub.DefaultSizes
				sizes.Train = int(float64(sizes.Train) * frac)
				w := synth.NewWorld(e.Seed)
				cat, err := datahub.NewTaskCatalog(w, task, sizes)
				if err != nil {
					return nil, err
				}
				// A repository of this world's own: the served framework's
				// models would materialize all at once and fill their
				// caches with this world's benchmark splits. Same seed, so
				// its models are bit-identical to the served ones.
				repo, err := modelhub.NewTaskRepository(w, task)
				if err != nil {
					return nil, err
				}
				m, err := perfmatrix.Build(repo, cat.Benchmarks(), fw.HP, e.Seed, 0)
				if err != nil {
					return nil, err
				}
				off, err := recall.PrepareOfflineWith(m, fw.Recall, fw.BuildWorkers)
				if err != nil {
					return nil, err
				}
				cl = off.Clustering
			}
			t.AddRow(task, frac, cluster.AdjustedRandIndex(full, cl), len(cl.NonSingletons()))
		}
	}
	t.Note("§III.A claims a small training subset suffices; ARI compares each reduced matrix's clustering with the full-data one")
	return t, nil
}
