package core

import (
	"context"
	"reflect"
	"testing"

	"twophase/internal/cluster"
	"twophase/internal/datahub"
	"twophase/internal/modelhub"
)

// TestAssembleArtifactsStages: the staged pipeline must reuse exactly the
// artifacts it is given, report their provenance in Stages, skip
// re-clustering when the recall artifact holds, and still produce
// selections bit-identical to a cold build.
func TestAssembleArtifactsStages(t *testing.T) {
	opts := Options{Task: datahub.TaskNLP, Seed: 42, Sizes: datahub.Sizes{Train: 60, Val: 40, Test: 48}}
	cold, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stages != (Stages{}) {
		t.Fatalf("cold build reports loaded stages: %+v", cold.Stages)
	}

	// Matrix only: stage 2 loads, stage 3 recomputes (one clustering pass).
	before, gen := cluster.Passes(), datahub.Generations()
	matOnly, err := AssembleArtifacts(opts, Artifacts{Matrix: cold.Matrix})
	if err != nil {
		t.Fatal(err)
	}
	if !matOnly.Stages.MatrixLoaded || matOnly.Stages.RecallLoaded {
		t.Fatalf("matrix-only stages: %+v", matOnly.Stages)
	}
	if got := cluster.Passes() - before; got != 1 {
		t.Fatalf("matrix-only assembly ran %d clustering passes, want 1", got)
	}
	if got := datahub.Generations() - gen; got != 0 {
		t.Fatalf("matrix-only assembly generated %d datasets, want 0", got)
	}

	// Matrix + recall artifact: both stages load, zero clustering passes,
	// and no dataset is generated: the matrix is checked against the
	// catalog's specs, and a target waits for its first read.
	before, gen = cluster.Passes(), datahub.Generations()
	warm, err := AssembleArtifacts(opts, Artifacts{Matrix: cold.Matrix, Recall: cold.RecallArtifact()})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stages.MatrixLoaded || !warm.Stages.RecallLoaded {
		t.Fatalf("warm stages: %+v", warm.Stages)
	}
	if got := cluster.Passes() - before; got != 0 {
		t.Fatalf("warm assembly ran %d clustering passes, want 0", got)
	}
	if got := datahub.Generations() - gen; got != 0 {
		t.Fatalf("warm assembly generated %d datasets, want 0", got)
	}

	// A stale recall artifact invalidates only stage 3.
	stale := *cold.RecallArtifact()
	stale.Threshold *= 2
	partial, err := AssembleArtifacts(opts, Artifacts{Matrix: cold.Matrix, Recall: &stale})
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Stages.MatrixLoaded || partial.Stages.RecallLoaded {
		t.Fatalf("stale-recall stages: %+v", partial.Stages)
	}

	// Selections are bit-identical across cold and warm assembly, on a
	// target and on a benchmark name, which the restored world generates
	// on this first read and the built one generated afresh.
	for _, name := range []string{"tweet_eval", "glue/sst2"} {
		want := selectByName(t, cold, name)
		got := selectByName(t, warm, name)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: warm selection differs from cold:\n%+v\nvs\n%+v", name, got, want)
		}
	}
}

// TestAssembleResolvesZeroSizes: a zero Sizes is DefaultSizes, so a matrix
// built under either assembles under the other without retraining.
func TestAssembleResolvesZeroSizes(t *testing.T) {
	zero := sharedNLP(t)
	fw, err := AssembleArtifacts(Options{Task: datahub.TaskNLP, Seed: 42, Sizes: datahub.DefaultSizes},
		Artifacts{Matrix: zero.Matrix})
	if err != nil {
		t.Fatal(err)
	}
	if !fw.Stages.MatrixLoaded {
		t.Fatal("matrix built under Sizes{} not loaded under DefaultSizes")
	}

	explicit, err := Build(Options{Task: datahub.TaskCV, Seed: 42, Sizes: datahub.DefaultSizes})
	if err != nil {
		t.Fatal(err)
	}
	fw, err = AssembleArtifacts(Options{Task: datahub.TaskCV, Seed: 42}, Artifacts{Matrix: explicit.Matrix})
	if err != nil {
		t.Fatal(err)
	}
	if !fw.Stages.MatrixLoaded {
		t.Fatal("matrix built under DefaultSizes not loaded under Sizes{}")
	}
}

// TestFrameworkMaterializesWhatRequestsRead: neither a built nor a restored
// framework holds a model when it returns; the build trains every model
// once, in a repository of its own that it drops. A two-phase select then
// materializes exactly the representatives it proxy-scores and the
// candidates it recalls, and sh, bf and lsq, which search the whole
// repository, materialize all of it.
func TestFrameworkMaterializesWhatRequestsRead(t *testing.T) {
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		opts := Options{Task: task, Seed: 42, Sizes: datahub.Sizes{Train: 60, Val: 40, Test: 48}}
		before := modelhub.Materializations()
		built, err := Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := modelhub.Materializations()-before, int64(built.Repo.Len()); got != want {
			t.Fatalf("%s: Build materialized %d models, want %d (the matrix stage's, once each)", task, got, want)
		}
		art := Artifacts{Matrix: built.Matrix, Recall: built.RecallArtifact()}
		restore := func() *Framework {
			t.Helper()
			before := modelhub.Materializations()
			fw, err := AssembleArtifacts(opts, art)
			if err != nil {
				t.Fatal(err)
			}
			if got := modelhub.Materializations() - before; got != 0 {
				t.Fatalf("%s: a restore materialized %d models, want 0", task, got)
			}
			return fw
		}
		target := built.Catalog.Targets()[0]
		selectCounting := func(fw *Framework, s Strategy) (*Report, int64) {
			t.Helper()
			before := modelhub.Materializations()
			rep, err := fw.SelectWith(context.Background(), target, SelectOptions{Strategy: s})
			if err != nil {
				t.Fatalf("%s %s: %v", task, s, err)
			}
			return rep, modelhub.Materializations() - before
		}

		for _, fw := range []*Framework{built, restore()} {
			rep, got := selectCounting(fw, StrategyTwoPhase)
			read := make(map[string]bool)
			for _, name := range rep.Recall.Representatives {
				read[name] = true
			}
			for _, name := range rep.Recall.Recalled {
				read[name] = true
			}
			if got != int64(len(read)) {
				t.Fatalf("%s: a two-phase select materialized %d models, want |representatives ∪ recalled| = %d", task, got, len(read))
			}
			if _, got = selectCounting(fw, StrategyTwoPhase); got != 0 {
				t.Fatalf("%s: a repeated two-phase select materialized %d models, want 0", task, got)
			}
		}
		for _, s := range []Strategy{StrategySH, StrategyBF, StrategyLSQ} {
			fw := restore()
			if _, got := selectCounting(fw, s); got != int64(fw.Repo.Len()) {
				t.Fatalf("%s: a %s select materialized %d models, want the whole repository (%d)", task, s, got, fw.Repo.Len())
			}
		}
	}
}
