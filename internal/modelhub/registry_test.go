package modelhub

import (
	"math"
	"sync"
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

// TestRepositoryGetMatchesMaterialize: materializing lazily, in any order,
// is the eager Materialize bit for bit. A repository is built without a
// materialization; Get then walks every spec of both tasks in reverse on
// one world, and Materialize walks them forward on a fresh world of the
// same seed. Every weight is compared by its bits. The extractor is the
// root of every golden, so this also runs in CI's arm64 job.
func TestRepositoryGetMatchesMaterialize(t *testing.T) {
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		before := Materializations()
		repo, err := NewTaskRepository(synth.NewWorld(42), task)
		if err != nil {
			t.Fatal(err)
		}
		if n := Materializations() - before; n != 0 {
			t.Fatalf("%s: NewTaskRepository materialized %d models, want 0", task, n)
		}
		specs := NLPSpecs()
		if task == datahub.TaskCV {
			specs = CVSpecs()
		}
		lazy := make([]*Model, len(specs))
		for i := len(specs) - 1; i >= 0; i-- {
			if lazy[i], err = repo.Get(specs[i].Name); err != nil {
				t.Fatal(err)
			}
		}
		if n := Materializations() - before; n != int64(len(specs)) {
			t.Fatalf("%s: %d Gets materialized %d models", task, len(specs), n)
		}
		fresh := synth.NewWorld(42)
		for i, spec := range specs {
			want, err := Materialize(fresh, spec)
			if err != nil {
				t.Fatal(err)
			}
			sameModelBits(t, task+" "+spec.Name, lazy[i], want)
		}
	}
}

// sameModelBits fails unless every frozen weight of got and want has the
// same bits.
func sameModelBits(t *testing.T, label string, got, want *Model) {
	t.Helper()
	words := func(m *Model) map[string][]float64 {
		return map[string][]float64{
			"prefDirs": m.prefDirs.Data, "wPref": m.wPref.Data, "wGeneric": m.wGeneric.Data,
			"bias": m.bias, "head": m.head.Data, "gain": {m.gain}, "leak": {m.leak},
		}
	}
	g, w := words(got), words(want)
	for name, ws := range w {
		gs := g[name]
		if len(gs) != len(ws) {
			t.Fatalf("%s: %s has %d words, want %d", label, name, len(gs), len(ws))
		}
		for i := range ws {
			if math.Float64bits(gs[i]) != math.Float64bits(ws[i]) {
				t.Fatalf("%s: %s[%d] = %x, want %x", label, name, i, gs[i], ws[i])
			}
		}
	}
	if got.featBound != want.featBound {
		t.Fatalf("%s: cache bound %d, want %d", label, got.featBound, want.featBound)
	}
}

// TestRepositoryGetMaterializesOnce: racing first readers of one name share
// one materialization and one model, and a Subset reads its parent's
// models instead of materializing its own. Run with -race.
func TestRepositoryGetMaterializesOnce(t *testing.T) {
	repo, err := NewTaskRepository(synth.NewWorld(42), datahub.TaskNLP)
	if err != nil {
		t.Fatal(err)
	}
	before := Materializations()
	got := make([]*Model, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := repo.Get("roberta-base")
			if err != nil {
				t.Error(err)
			}
			got[g] = m
		}()
	}
	wg.Wait()
	if n := Materializations() - before; n != 1 {
		t.Fatalf("16 concurrent Gets materialized %d models, want 1", n)
	}
	for g, m := range got {
		if m != got[0] {
			t.Fatalf("reader %d got another model", g)
		}
	}

	names := []string{"bert-base-uncased", "roberta-base"}
	sub, err := repo.Subset(names)
	if err != nil {
		t.Fatal(err)
	}
	if n := Materializations() - before; n != 1 {
		t.Fatalf("Subset materialized %d models, want none", n-1)
	}
	for i, m := range sub.Models() {
		want, err := repo.Get(names[i])
		if err != nil {
			t.Fatal(err)
		}
		if m != want {
			t.Fatalf("Subset model %s is not the parent's", names[i])
		}
	}
	if n := Materializations() - before; n != 2 {
		t.Fatalf("a two-model Subset sharing one materialized model brought the count to %d, want 2", n)
	}
}

// TestNewRepositoryRejectsBadSpecs: the checks Materialize applies fail
// the repository's construction, before any model is read, so a lazy read
// cannot fail on a spec.
func TestNewRepositoryRejectsBadSpecs(t *testing.T) {
	w := synth.NewWorld(42)
	before := Materializations()
	for i, spec := range []Spec{
		{},                            // empty name
		testModelSpec("a", nil, -0.1), // capability < 0
		testModelSpec("b", nil, 1.1),  // capability > 1
		{Name: "c", Task: datahub.TaskNLP, Capability: 0.5, SourceClasses: 1}, // 1 source class
		{Name: "d", Task: "audio", Capability: 0.5, SourceClasses: 2},         // unknown task family
	} {
		if _, err := NewRepository(w, spec.Task, []Spec{spec}); err == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
	if n := Materializations() - before; n != 0 {
		t.Fatalf("rejecting bad specs materialized %d models", n)
	}
}
