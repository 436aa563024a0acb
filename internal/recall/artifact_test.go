package recall

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"twophase/internal/cluster"
	"twophase/internal/proxy"
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

	// Round-trip through JSON, so the rehydrated Offline shares no memory
	// with the artifact's source.
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

// TestRehydrateUnderRecallTimeOptions: K and the scorer act only at
// recall time, so a clustering stored under the default options (calibrated
// LEEP) rehydrates under every scorer the proxy ablation compares and under
// K = |M| without another clustering pass, and each rehydrated Offline
// recalls bit for bit what one freshly prepared with those options does.
func TestRehydrateUnderRecallTimeOptions(t *testing.T) {
	m, repo, target := fixture(t)
	served, err := PrepareOfflineWith(m, Options{Scorer: proxy.CalibratedLEEP{}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	art := served.Artifact(m.Task, m.Seed)
	scorers := []proxy.Scorer{
		proxy.CalibratedLEEP{},
		proxy.LEEP{},
		proxy.NCE{},
		proxy.KNN{},
		proxy.Ensemble{Scorers: []proxy.Scorer{proxy.CalibratedLEEP{}, proxy.KNN{}}},
	}
	for _, s := range scorers {
		for _, k := range []int{4, len(m.Models)} {
			opts := Options{K: k, Scorer: s}
			before := cluster.Passes()
			warm, err := Rehydrate(m, opts, art)
			if err != nil {
				t.Fatalf("%s K=%d: %v", s.Name(), k, err)
			}
			if got := cluster.Passes() - before; got != 0 {
				t.Fatalf("%s K=%d: rehydrate ran %d clustering passes, want 0", s.Name(), k, got)
			}
			cold, err := PrepareOfflineWith(m, opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			var warmLedger, coldLedger trainer.Ledger
			got, err := warm.Recall(repo, target, &warmLedger)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Recall(repo, target, &coldLedger)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Recalled, want.Recalled) {
				t.Errorf("%s K=%d: recalled %v, want %v", s.Name(), k, got.Recalled, want.Recalled)
			}
			if len(got.RecallScores) != len(want.RecallScores) {
				t.Fatalf("%s K=%d: %d recall scores, want %d", s.Name(), k, len(got.RecallScores), len(want.RecallScores))
			}
			for name, w := range want.RecallScores {
				if g, ok := got.RecallScores[name]; !ok || math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("%s K=%d: %s recall score %v, want %v", s.Name(), k, name, g, w)
				}
			}
			if warmLedger != coldLedger {
				t.Errorf("%s K=%d: ledger %v, want %v", s.Name(), k, warmLedger, coldLedger)
			}
		}
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
