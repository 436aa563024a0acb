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
	before := cluster.Passes()
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

	// Matrix + recall artifact: both stages load, zero clustering passes.
	before = cluster.Passes()
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

	// Selections are bit-identical across cold and warm assembly.
	want := selectByName(t, cold, "tweet_eval")
	got := selectByName(t, warm, "tweet_eval")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm selection differs from cold:\n%+v\nvs\n%+v", got, want)
	}
}
