package datahub

import (
	"errors"
	"reflect"
	"testing"

	"twophase/internal/synth"
)

func TestRegistryCounts(t *testing.T) {
	if n := len(NLPBenchmarks()); n != 24 {
		t.Fatalf("NLP benchmarks = %d, paper uses 24", n)
	}
	if n := len(NLPTargets()); n != 4 {
		t.Fatalf("NLP targets = %d, paper uses 4", n)
	}
	if n := len(CVBenchmarks()); n != 10 {
		t.Fatalf("CV benchmarks = %d, matrix is 30x10", n)
	}
	if n := len(CVTargets()); n != 4 {
		t.Fatalf("CV targets = %d, paper uses 4", n)
	}
}

func TestRegistrySpecsValid(t *testing.T) {
	for _, group := range [][]Spec{NLPBenchmarks(), NLPTargets(), CVBenchmarks(), CVTargets()} {
		for _, s := range group {
			if s.Name == "" || s.Classes < 2 || s.Separability <= 0 || s.Noise <= 0 {
				t.Fatalf("invalid spec %+v", s)
			}
			if s.Task != TaskNLP && s.Task != TaskCV {
				t.Fatalf("spec %q has task %q", s.Name, s.Task)
			}
			if len(s.Domains) == 0 {
				t.Fatalf("spec %q has no domains", s.Name)
			}
		}
	}
}

func TestRegistryBenchmarkFlags(t *testing.T) {
	for _, s := range append(NLPBenchmarks(), CVBenchmarks()...) {
		if !s.Benchmark {
			t.Fatalf("benchmark spec %q not flagged", s.Name)
		}
	}
	for _, s := range append(NLPTargets(), CVTargets()...) {
		if s.Benchmark {
			t.Fatalf("target spec %q flagged as benchmark", s.Name)
		}
	}
}

func TestPaperDatasetNamesPresent(t *testing.T) {
	want := []string{
		"glue/cola", "glue/qqp", "super_glue/cb", "imdb", "financial_phrasebank",
		"tweet_eval", "LysandreJik/glue-mnli-train", "super_glue/boolq",
		"food101", "cifar10", "mnist", "cats_vs_dogs",
		"beans", "nelorth/oxford-flowers", "trpakov/chest-xray-classification",
		"albertvillanova/medmnist-v2", "alkzar90/CC6204-Hackaton-Cub-Dataset",
	}
	have := map[string]bool{}
	for _, g := range [][]Spec{NLPBenchmarks(), NLPTargets(), CVBenchmarks(), CVTargets()} {
		for _, s := range g {
			have[s.Name] = true
		}
	}
	for _, n := range want {
		if !have[n] {
			t.Fatalf("paper dataset %q missing from registry", n)
		}
	}
}

func TestNewCatalog(t *testing.T) {
	w := synth.NewWorld(42)
	c, err := NewTaskCatalog(w, TaskNLP, Sizes{Train: 10, Val: 5, Test: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Benchmarks()) != 24 || len(c.Targets()) != 4 {
		t.Fatalf("catalog sizes %d/%d", len(c.Benchmarks()), len(c.Targets()))
	}
	if _, err := c.Get("glue/cola"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("no-such-dataset"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestNewCatalogDuplicateRejected(t *testing.T) {
	w := synth.NewWorld(42)
	s := testSpec()
	if _, err := newCatalog(w, Sizes{Train: 5, Val: 5, Test: 5}, []Spec{s}, []Spec{s}); err == nil {
		t.Fatal("duplicate dataset accepted")
	}
}

func TestNewTaskCatalogUnknownTask(t *testing.T) {
	w := synth.NewWorld(42)
	if _, err := NewTaskCatalog(w, "audio", Sizes{}); err == nil {
		t.Fatal("unknown task accepted")
	}
}

// TestTargetNamesMatchCatalog: the static name list the targets route and
// cmd/serve answer from is exactly the materialized catalog's target list,
// in order, whatever the world seed or split sizes — so listing needs no
// world.
func TestTargetNamesMatchCatalog(t *testing.T) {
	for _, task := range []string{TaskNLP, TaskCV} {
		want, err := TargetNames(task)
		if err != nil {
			t.Fatal(err)
		}
		for i, seed := range []uint64{7, 42} {
			c, err := NewTaskCatalog(synth.NewWorld(seed), task, Sizes{Train: 5 + 5*i, Val: 5, Test: 5})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range c.Targets() {
				got = append(got, d.Name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: catalog targets %v, TargetNames %v", task, seed, got, want)
			}
		}
	}
	if _, err := TargetNames("audio"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("TargetNames(audio) = %v, want ErrUnknownTask", err)
	}
}

func TestCatalogOrderStable(t *testing.T) {
	w := synth.NewWorld(42)
	c, err := NewTaskCatalog(w, TaskCV, Sizes{Train: 5, Val: 5, Test: 5})
	if err != nil {
		t.Fatal(err)
	}
	bm := c.Benchmarks()
	if bm[0].Name != "food101" {
		t.Fatalf("benchmark order changed: first = %q", bm[0].Name)
	}
}
