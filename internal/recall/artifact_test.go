package recall

import (
	"encoding/json"
	"reflect"
	"testing"

	"twophase/internal/cluster"
	"twophase/internal/trainer"
)

// TestRehydrateBitIdentical: an Offline rehydrated from its own persisted
// artifact must recall exactly what a freshly clustered one does, without
// running another clustering pass.
func TestRehydrateBitIdentical(t *testing.T) {
	m, repo, target := fixture(t)
	opts := Options{K: 4}
	cold, err := PrepareOfflineWith(m, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	art := cold.Artifact(m.Task, m.Seed)

	// Round-trip through JSON, as the store would.
	data, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Artifact
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}

	before := cluster.Passes()
	warm, err := Rehydrate(m, opts, &loaded)
	if err != nil {
		t.Fatal(err)
	}
	if got := cluster.Passes() - before; got != 0 {
		t.Fatalf("rehydrate ran %d clustering passes, want 0", got)
	}

	var coldLedger, warmLedger trainer.Ledger
	want, err := cold.Recall(repo, target, &coldLedger)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.Recall(repo, target, &warmLedger)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rehydrated recall differs from cold recall:\n%+v\nvs\n%+v", got, want)
	}
	if coldLedger != warmLedger {
		t.Fatalf("ledgers differ: %v vs %v", warmLedger, coldLedger)
	}
}

// TestRehydrateRejectsStale: any changed clustering input must fail
// rehydration so the caller recomputes the stage.
func TestRehydrateRejectsStale(t *testing.T) {
	m, _, _ := fixture(t)
	opts := Options{K: 4}
	off, err := PrepareOfflineWith(m, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := off.Artifact(m.Task, m.Seed)

	mutate := map[string]func(a *Artifact){
		"similarity k": func(a *Artifact) { a.SimilarityK++ },
		"threshold":    func(a *Artifact) { a.Threshold *= 2 },
		"scorer":       func(a *Artifact) { a.Scorer = "other" },
		"task":         func(a *Artifact) { a.Task = "cv" },
		"seed":         func(a *Artifact) { a.Seed++ },
		"model order": func(a *Artifact) {
			a.Models = append([]string(nil), a.Models...)
			a.Models[0], a.Models[1] = a.Models[1], a.Models[0]
		},
		"assignment range": func(a *Artifact) {
			a.Assign = append([]int(nil), a.Assign...)
			a.Assign[0] = a.Clusters
		},
		"truncated": func(a *Artifact) { a.Assign = a.Assign[:len(a.Assign)-1] },
	}
	for name, mut := range mutate {
		a := *base
		mut(&a)
		if _, err := Rehydrate(m, opts, &a); err == nil {
			t.Errorf("stale artifact (%s) accepted", name)
		}
	}
	if _, err := Rehydrate(m, opts, nil); err == nil {
		t.Error("nil artifact accepted")
	}
	// The unmutated artifact still rehydrates.
	if _, err := Rehydrate(m, opts, base); err != nil {
		t.Fatalf("pristine artifact rejected: %v", err)
	}
}

// TestRehydrateRejectsEmptyCluster: a cluster id with no members would
// break representative derivation, so it must be rejected up front.
func TestRehydrateRejectsEmptyCluster(t *testing.T) {
	m, _, _ := fixture(t)
	off, err := PrepareOfflineWith(m, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := *off.Artifact(m.Task, m.Seed)
	a.Clusters++ // one id now has no members
	if _, err := Rehydrate(m, Options{}, &a); err == nil {
		t.Fatal("artifact with empty cluster accepted")
	}
}
