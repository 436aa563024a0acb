package core_test

// Golden bit-identity suite for the numeric core. The fixtures under
// testdata/ were recorded from the historical slice-of-slices feature
// path (per-example [][]float64 extraction and per-example MulVec
// train/eval) BEFORE the contiguous numeric.Frame kernels landed; every
// run since must reproduce them byte-for-byte. Any change to the hot
// numeric loops that alters even the last ULP of any report field —
// accuracies, recall scores, proxy scores, cluster assignment, ledger —
// fails this test.
//
// Regenerate (only when an intentional semantic change is made, with a
// clear changelog entry) with:
//
//	go test ./internal/core -run TestGoldenSelectReports -update-golden

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/trainer"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden selection reports")

var goldenSizes = datahub.Sizes{Train: 60, Val: 40, Test: 48}

// goldenReport flattens a core.Report into a fully exported, deterministic
// form. Floats marshal via Go's shortest-round-trip encoding, so byte
// equality of the JSON implies bit equality of every float64.
type goldenReport struct {
	Target       string             `json:"target"`
	Strategy     string             `json:"strategy"`
	Winner       string             `json:"winner"`
	WinnerVal    float64            `json:"winner_val"`
	WinnerTest   float64            `json:"winner_test"`
	Members      []string           `json:"members,omitempty"`
	Stages       [][]string         `json:"stages"`
	TrainEpochs  int                `json:"train_epochs"`
	TotalEpochs  float64            `json:"total_epochs"`
	Recalled     []string           `json:"recalled,omitempty"`
	RecallScores map[string]float64 `json:"recall_scores,omitempty"`
	ProxyScores  map[string]float64 `json:"proxy_scores,omitempty"`
	ClusterK     int                `json:"cluster_k,omitempty"`
	Assign       []int              `json:"assign,omitempty"`
	Reps         map[string]string  `json:"representatives,omitempty"`
}

func renderGolden(r *core.Report) goldenReport {
	g := goldenReport{
		Target:      r.Target,
		Strategy:    string(r.Strategy),
		Winner:      r.Outcome.Winner,
		WinnerVal:   r.Outcome.WinnerVal,
		WinnerTest:  r.Outcome.WinnerTest,
		Members:     r.Members,
		Stages:      r.Outcome.Stages,
		TrainEpochs: r.Ledger.TrainEpochs(),
		TotalEpochs: r.TotalEpochs(),
	}
	if r.Recall != nil {
		g.Recalled = r.Recall.Recalled
		g.RecallScores = r.Recall.RecallScores
		g.ProxyScores = r.Recall.ProxyScores
		g.ClusterK = r.Recall.Clustering.K
		g.Assign = r.Recall.Clustering.Assign
		g.Reps = make(map[string]string, len(r.Recall.Representatives))
		for cid, name := range r.Recall.Representatives {
			g.Reps[fmt.Sprint(cid)] = name
		}
	}
	return g
}

func goldenPath(task string, seed uint64, strategy core.Strategy) string {
	return filepath.Join("testdata", fmt.Sprintf("golden_%s_seed%d_%s.json", task, seed, strategy))
}

func TestGoldenSelectReports(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite builds full frameworks")
	}
	strategies := []core.Strategy{core.StrategyTwoPhase, core.StrategySH, core.StrategyBF, core.StrategyEnsemble, core.StrategyLSQ}
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		for _, seed := range []uint64{0, 7} {
			fw, err := core.Build(core.Options{Task: task, Seed: seed, Sizes: goldenSizes})
			if err != nil {
				t.Fatalf("build %s/%d: %v", task, seed, err)
			}
			target := fw.Catalog.Targets()[0]
			for _, strat := range strategies {
				report, err := fw.SelectWith(context.Background(), target, core.SelectOptions{Strategy: strat})
				if err != nil {
					t.Fatalf("select %s/%d/%s: %v", task, seed, strat, err)
				}
				checkGolden(t, report, goldenPath(task, seed, strat))
			}
		}
	}
}

// TestGoldenZeroEpochSelectReports pins the max_epochs: 0 select — the
// cheapest anytime request the API offers — across commits, as
// TestGoldenSelectReports pins the unbudgeted one: the fine phase stops
// before its first stage, so the two-phase winner is reported untrained
// (winner_test is an untrained head's accuracy), the ensemble's members
// vote with untrained heads, and recall's proxy scores are most of the
// work.
func TestGoldenZeroEpochSelectReports(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite builds full frameworks")
	}
	zero := 0
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		fw, err := core.Build(core.Options{Task: task, Seed: 0, Sizes: goldenSizes})
		if err != nil {
			t.Fatalf("build %s/0: %v", task, err)
		}
		target := fw.Catalog.Targets()[0]
		for _, strat := range []core.Strategy{core.StrategyTwoPhase, core.StrategyEnsemble} {
			report, err := fw.SelectWith(context.Background(), target, core.SelectOptions{Strategy: strat, MaxEpochs: &zero})
			if err != nil {
				t.Fatalf("select %s/0/%s: %v", task, strat, err)
			}
			path := filepath.Join("testdata", fmt.Sprintf("golden_%s_seed0_%s_epochs0.json", task, strat))
			checkGolden(t, report, path)
		}
	}
}

// checkGolden compares a report's rendering with the fixture at path, or
// rewrites the fixture under -update-golden.
func checkGolden(t *testing.T, report *core.Report, path string) {
	t.Helper()
	got, err := json.MarshalIndent(renderGolden(report), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (record with -update-golden): %v", path, err)
	}
	if string(got) != string(want) {
		t.Errorf("%s: report diverges from the recorded fixture\n%s", path, firstDiff(string(want), string(got)))
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n want: %s\n got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(wl), len(gl))
}

// TestGoldenLedgerAccounting pins the cost accounting of the golden runs:
// the ledger totals inside the fixtures must stay internally consistent
// (total = train + 0.5*inference) so a kernel change can never silently
// shift cost attribution between phases.
func TestGoldenLedgerAccounting(t *testing.T) {
	var l trainer.Ledger
	l.ChargeEpochs(3)
	l.ChargeInference(4)
	if l.Total() != 5 {
		t.Fatalf("ledger total %v, want 5", l.Total())
	}
}
