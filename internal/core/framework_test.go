package core

import (
	"context"

	"sync"
	"testing"

	"twophase/internal/datahub"
)

var (
	fwOnce sync.Once
	fwNLP  *Framework
	fwErr  error
)

// sharedNLP builds the full NLP framework once per test binary (~2s) and
// shares it across tests, which only read from it.
func sharedNLP(t *testing.T) *Framework {
	t.Helper()
	fwOnce.Do(func() {
		fwNLP, fwErr = Build(Options{Task: datahub.TaskNLP, Seed: 42})
	})
	if fwErr != nil {
		t.Fatal(fwErr)
	}
	return fwNLP
}

func TestBuildShape(t *testing.T) {
	fw := sharedNLP(t)
	if fw.Repo.Len() != 40 {
		t.Fatalf("repo %d models", fw.Repo.Len())
	}
	if len(fw.Matrix.Models) != 40 || len(fw.Matrix.Datasets) != 24 {
		t.Fatalf("matrix %dx%d, paper builds 40x24", len(fw.Matrix.Models), len(fw.Matrix.Datasets))
	}
	if fw.HP.Epochs != 5 {
		t.Fatalf("NLP epochs %d", fw.HP.Epochs)
	}
	if fw.Recall.K != 10 {
		t.Fatalf("recall defaults %+v", fw.Recall)
	}
}

func TestBuildUnknownTask(t *testing.T) {
	if _, err := Build(Options{Task: "audio", Seed: 1}); err == nil {
		t.Fatal("unknown task accepted")
	}
}

func TestBuildDefaultTask(t *testing.T) {
	// empty task falls back to NLP; use tiny sizes to keep it cheap
	fw, err := Build(Options{Seed: 7, Sizes: datahub.Sizes{Train: 30, Val: 20, Test: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if fw.Task != datahub.TaskNLP {
		t.Fatalf("default task %q", fw.Task)
	}
}

// selectByName resolves name in fw's catalog and runs the default select.
func selectByName(t *testing.T, fw *Framework, name string) *Report {
	t.Helper()
	d, err := fw.Catalog.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	report, err := fw.Select(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

func TestSelectEndToEnd(t *testing.T) {
	fw := sharedNLP(t)
	report := selectByName(t, fw, "tweet_eval")
	if len(report.Recall.Recalled) != 10 {
		t.Fatalf("recalled %d", len(report.Recall.Recalled))
	}
	// winner must come from the recalled set
	found := false
	for _, n := range report.Recall.Recalled {
		if n == report.Outcome.Winner {
			found = true
		}
	}
	if !found {
		t.Fatalf("winner %s not among recalled models", report.Outcome.Winner)
	}
	if report.Outcome.WinnerTest <= 0 || report.Outcome.WinnerTest > 1 {
		t.Fatalf("winner test %v", report.Outcome.WinnerTest)
	}
	// end-to-end cost must be far below brute force (200 epochs)
	if report.TotalEpochs() >= 60 {
		t.Fatalf("two-phase cost %v epochs, expected well under brute force", report.TotalEpochs())
	}
	// ledger composition: recall inference + fine-selection training
	wantTotal := float64(0.5*float64(report.Recall.ScoredModels)) + float64(report.Outcome.Ledger.TrainEpochs())
	if report.TotalEpochs() != wantTotal {
		t.Fatalf("ledger total %v != recall+selection %v", report.TotalEpochs(), wantTotal)
	}
}

func TestSelectDeterministic(t *testing.T) {
	fw := sharedNLP(t)
	a := selectByName(t, fw, "super_glue/boolq")
	b := selectByName(t, fw, "super_glue/boolq")
	if a.Outcome.Winner != b.Outcome.Winner || a.TotalEpochs() != b.TotalEpochs() {
		t.Fatal("selection not deterministic")
	}
}

func TestSelectUnknownTarget(t *testing.T) {
	fw := sharedNLP(t)
	if _, err := fw.Catalog.Get("no-such-dataset"); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestBaselinesBeatNothing(t *testing.T) {
	fw := sharedNLP(t)
	d, err := fw.Catalog.Get("tweet_eval")
	if err != nil {
		t.Fatal(err)
	}
	bf, err := fw.SelectWith(context.Background(), d, SelectOptions{Strategy: StrategyBF})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := fw.SelectWith(context.Background(), d, SelectOptions{Strategy: StrategySH})
	if err != nil {
		t.Fatal(err)
	}
	if bf.Ledger.TrainEpochs() != 200 {
		t.Fatalf("BF cost %d, want 40 models x 5 epochs", bf.Ledger.TrainEpochs())
	}
	if sh.Ledger.TrainEpochs() != 77 {
		t.Fatalf("SH cost %d, paper reports 77 for 40 models", sh.Ledger.TrainEpochs())
	}
	report, err := fw.Select(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalEpochs() >= float64(sh.Ledger.TrainEpochs()) {
		t.Fatalf("two-phase %v not below SH %d", report.TotalEpochs(), sh.Ledger.TrainEpochs())
	}
}

func TestSelectedModelNearBruteForce(t *testing.T) {
	fw := sharedNLP(t)
	d, err := fw.Catalog.Get("LysandreJik/glue-mnli-train")
	if err != nil {
		t.Fatal(err)
	}
	report, err := fw.Select(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := fw.OracleAccuracies(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, a := range oracle {
		if a > best {
			best = a
		}
	}
	if report.Outcome.WinnerTest < best-0.10 {
		t.Fatalf("two-phase winner %.3f more than 0.10 below oracle best %.3f",
			report.Outcome.WinnerTest, best)
	}
}

func TestOracleAccuracies(t *testing.T) {
	fw := sharedNLP(t)
	d, err := fw.Catalog.Get("tweet_eval")
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := fw.OracleAccuracies(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle) != fw.Repo.Len() {
		t.Fatalf("oracle covers %d models", len(oracle))
	}
	for n, a := range oracle {
		if a <= 0 || a > 1 {
			t.Fatalf("oracle acc %v for %s", a, n)
		}
	}
}
