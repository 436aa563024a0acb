// Package twophase_test holds the checks that need the whole module: the
// cross-package integration tests here and the source-level guards in
// surface_test.go.
package twophase_test

import (
	"context"
	"testing"

	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/recall"
	"twophase/internal/selection"
	"twophase/internal/store"
)

// TestOfflineArtifactsSurvivePersistence exercises the production loop the
// §VII store enables: build the offline phase once, persist it, reload it
// in a "new process", and serve an online selection from the reloaded
// matrix — results must be identical to the in-memory path.
func TestOfflineArtifactsSurvivePersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("full offline build; skipped in -short")
	}
	fw, err := core.Build(core.Options{Task: datahub.TaskNLP, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutMatrix("nlp", fw.Matrix); err != nil {
		t.Fatal(err)
	}

	reloaded, err := st.GetMatrix("nlp")
	if err != nil {
		t.Fatal(err)
	}
	target, err := fw.Catalog.Get("tweet_eval")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := fw.Offline.Recall(fw.Repo, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	diskOffline, err := recall.PrepareOfflineWith(reloaded, fw.Recall, 1)
	if err != nil {
		t.Fatal(err)
	}
	fromDisk, err := diskOffline.Recall(fw.Repo, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Recalled) != len(fromDisk.Recalled) {
		t.Fatal("recall size changed after persistence")
	}
	for i := range fresh.Recalled {
		if fresh.Recalled[i] != fromDisk.Recalled[i] {
			t.Fatalf("recall order diverged at %d: %s vs %s",
				i, fresh.Recalled[i], fromDisk.Recalled[i])
		}
	}

	// Fine-selection from the reloaded matrix must also agree.
	cand, err := fw.Repo.Subset(fromDisk.Recalled)
	if err != nil {
		t.Fatal(err)
	}
	opts := selection.FineSelectOptions{
		Config: selection.Config{HP: fw.HP, Seed: fw.Seed, Salt: "two-phase"},
		Matrix: reloaded,
	}
	out, err := selection.FineSelect(context.Background(), cand.Models(), target, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := fw.Select(context.Background(), target)
	if err != nil {
		t.Fatal(err)
	}
	if out.Winner != direct.Outcome.Winner {
		t.Fatalf("winner changed after persistence: %s vs %s", out.Winner, direct.Outcome.Winner)
	}
}

// TestCrossSeedWorldsDiffer guards against accidental seed plumbing bugs:
// different world seeds must produce genuinely different offline matrices.
func TestCrossSeedWorldsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("two offline builds; skipped in -short")
	}
	a, err := core.Build(core.Options{Task: datahub.TaskNLP, Seed: 1,
		Sizes: datahub.Sizes{Train: 40, Val: 30, Test: 40}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Build(core.Options{Task: datahub.TaskNLP, Seed: 2,
		Sizes: datahub.Sizes{Train: 40, Val: 30, Test: 40}})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Matrix.Models {
		if a.Matrix.AvgAcc(i) == b.Matrix.AvgAcc(i) {
			same++
		}
	}
	if same == len(a.Matrix.Models) {
		t.Fatal("different seeds produced identical matrices")
	}
}
