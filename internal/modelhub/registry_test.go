package modelhub

import (
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/synth"
)

func TestSpecCounts(t *testing.T) {
	if n := len(NLPSpecs()); n != 40 {
		t.Fatalf("NLP models = %d, paper uses 40", n)
	}
	if n := len(CVSpecs()); n != 30 {
		t.Fatalf("CV models = %d, paper uses 30", n)
	}
}

func TestSpecsValid(t *testing.T) {
	for _, group := range [][]Spec{NLPSpecs(), CVSpecs()} {
		seen := map[string]bool{}
		for _, s := range group {
			if seen[s.Name] {
				t.Fatalf("duplicate model %q", s.Name)
			}
			seen[s.Name] = true
			if s.Capability <= 0 || s.Capability > 1 {
				t.Fatalf("model %q capability %v", s.Name, s.Capability)
			}
			if s.SourceClasses < 2 {
				t.Fatalf("model %q source classes %d", s.Name, s.SourceClasses)
			}
			if s.Arch == "" || s.Params <= 0 {
				t.Fatalf("model %q missing arch/params", s.Name)
			}
		}
	}
}

func TestPaperModelNamesPresent(t *testing.T) {
	want := []string{
		"bert-base-uncased", "roberta-base", "albert-base-v2", "distilbert-base-uncased",
		"ishan/bert-base-uncased-mnli", "Jeevesh8/feather_berts_46",
		"connectivity/bert_ft_qqp-1", "Jeevesh8/init_bert_ft_qqp-33",
		"google/vit-base-patch16-224", "microsoft/beit-base-patch16-384",
		"facebook/deit-base-patch16-224", "shi-labs/dinat-large-in22k-in1k-384",
		"sail/poolformer_m36", "Visual-Attention-Network/van-large",
		"nateraw/vit-age-classifier", "oschamp/vit-artworkclassifier",
	}
	have := map[string]bool{}
	for _, g := range [][]Spec{NLPSpecs(), CVSpecs()} {
		for _, s := range g {
			have[s.Name] = true
		}
	}
	for _, n := range want {
		if !have[n] {
			t.Fatalf("paper model %q missing", n)
		}
	}
}

func TestNewTaskRepository(t *testing.T) {
	w := synth.NewWorld(42)
	nlp, err := NewTaskRepository(w, datahub.TaskNLP)
	if err != nil {
		t.Fatal(err)
	}
	if nlp.Len() != 40 {
		t.Fatalf("NLP repo len %d", nlp.Len())
	}
	cv, err := NewTaskRepository(w, datahub.TaskCV)
	if err != nil {
		t.Fatal(err)
	}
	if cv.Len() != 30 {
		t.Fatalf("CV repo len %d", cv.Len())
	}
	if _, err := NewTaskRepository(w, "audio"); err == nil {
		t.Fatal("unknown task accepted")
	}
}

func TestRepositoryAccessors(t *testing.T) {
	w := synth.NewWorld(42)
	repo, err := NewTaskRepository(w, datahub.TaskNLP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Get("roberta-base"); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Get("no/such-model"); err == nil {
		t.Fatal("unknown model accepted")
	}
	models := repo.Models()
	if len(models) != 40 || models[0].Name != NLPSpecs()[0].Name {
		t.Fatal("Models() order must match registration order")
	}
}

func TestRepositorySubset(t *testing.T) {
	w := synth.NewWorld(42)
	repo, err := NewTaskRepository(w, datahub.TaskNLP)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := repo.Subset([]string{"roberta-base", "bert-base-uncased"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 || sub.Models()[0].Name != "roberta-base" {
		t.Fatal("subset order/contents wrong")
	}
	if _, err := repo.Subset([]string{"roberta-base", "roberta-base"}); err == nil {
		t.Fatal("duplicate subset accepted")
	}
	if _, err := repo.Subset([]string{"missing"}); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestNewRepositoryTaskMismatch(t *testing.T) {
	w := synth.NewWorld(42)
	if _, err := NewRepository(w, datahub.TaskCV, NLPSpecs()); err == nil {
		t.Fatal("task mismatch accepted")
	}
}

func TestRepositoryModelsIndependentSlice(t *testing.T) {
	w := synth.NewWorld(42)
	repo, err := NewTaskRepository(w, datahub.TaskCV)
	if err != nil {
		t.Fatal(err)
	}
	ms := repo.Models()
	ms[0] = nil
	if repo.Models()[0] == nil {
		t.Fatal("Models() exposes internal slice")
	}
}
