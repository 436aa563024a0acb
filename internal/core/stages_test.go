package core

import (
	"reflect"
	"testing"

	"twophase/internal/cluster"
	"twophase/internal/datahub"
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
