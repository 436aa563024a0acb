package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/perfmatrix"
	"twophase/internal/recall"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestModelRoundtrip(t *testing.T) {
	s := openTemp(t)
	spec := modelhub.NLPSpecs()[0]
	if err := s.PutModel(spec); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetModel(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != spec.Name || got.Capability != spec.Capability || got.Arch != spec.Arch {
		t.Fatalf("roundtrip lost fields: %+v", got)
	}
}

func TestSlashNamesSurvive(t *testing.T) {
	s := openTemp(t)
	spec := modelhub.Spec{Name: "org/sub/model-v2", Task: "nlp", Arch: "bert",
		Params: 1, Capability: 0.5, SourceClasses: 2}
	if err := s.PutModel(spec); err != nil {
		t.Fatal(err)
	}
	names, err := s.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "org/sub/model-v2" {
		t.Fatalf("names = %v", names)
	}
	if _, err := s.GetModel("org/sub/model-v2"); err != nil {
		t.Fatal(err)
	}
}

// TestSlugCollisionSafe: names that the old slugging collapsed onto one
// file ("a/b" vs "a__b", "a b" vs "a_b") must each round-trip to their own
// artifact, and listing must invert the encoding exactly.
func TestSlugCollisionSafe(t *testing.T) {
	s := openTemp(t)
	names := []string{"a/b", "a__b", "a b", "a_b", "a%5Fb", "pct%name", "tri___ple"}
	for i, name := range names {
		spec := modelhub.Spec{Name: name, Task: "nlp", Arch: "bert",
			Params: i + 1, Capability: 0.5, SourceClasses: 2}
		if err := s.PutModel(spec); err != nil {
			t.Fatalf("put %q: %v", name, err)
		}
	}
	got, err := s.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(names) {
		t.Fatalf("stored %d names, listed %d: %v", len(names), len(got), got)
	}
	for i, name := range names {
		spec, err := s.GetModel(name)
		if err != nil {
			t.Fatalf("get %q: %v", name, err)
		}
		if spec.Name != name || spec.Params != i+1 {
			t.Fatalf("name %q read back as %+v — collision overwrote it", name, spec)
		}
	}
}

func TestSlugRoundTrip(t *testing.T) {
	for _, name := range []string{"plain", "a/b/c", "a b c", "under_score", "%", "%25", "__", "mix_ %/x"} {
		file := slug(name)
		if got := unslug(strings.TrimSuffix(file, ".json")); got != name {
			t.Errorf("slug(%q) = %q decodes to %q", name, file, got)
		}
		if strings.ContainsAny(file, "/ ") {
			t.Errorf("slug(%q) = %q contains a path or space character", name, file)
		}
	}
	// Injectivity over a brute-force alphabet of tricky short names.
	alphabet := []rune{'a', '_', '/', ' ', '%'}
	seen := map[string]string{}
	var walk func(prefix string, depth int)
	walk = func(prefix string, depth int) {
		if prev, ok := seen[slug(prefix)]; ok && prev != prefix {
			t.Fatalf("slug collision: %q and %q -> %q", prev, prefix, slug(prefix))
		} else if !ok {
			seen[slug(prefix)] = prefix
		}
		if depth == 0 {
			return
		}
		for _, r := range alphabet {
			walk(prefix+string(r), depth-1)
		}
	}
	walk("", 4)
}

func TestGetMissing(t *testing.T) {
	s := openTemp(t)
	if _, err := s.GetModel("nope"); err == nil {
		t.Fatal("missing model accepted")
	}
	if _, err := s.GetDataset("nope"); err == nil {
		t.Fatal("missing dataset accepted")
	}
	if _, err := s.GetMatrix("nope"); err == nil {
		t.Fatal("missing matrix accepted")
	}
}

func TestQueryModels(t *testing.T) {
	s := openTemp(t)
	if err := s.SaveRepository(modelhub.NLPSpecs()); err != nil {
		t.Fatal(err)
	}
	berts, err := s.QueryModels("nlp", "bert", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(berts) == 0 {
		t.Fatal("no berts found")
	}
	for _, m := range berts {
		if m.Arch != "bert" {
			t.Fatalf("query leaked arch %q", m.Arch)
		}
	}
	strong, err := s.QueryModels("nlp", "", 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range strong {
		if m.Capability < 0.7 {
			t.Fatalf("query leaked capability %v", m.Capability)
		}
	}
	cv, err := s.QueryModels("cv", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv) != 0 {
		t.Fatal("cv query should be empty")
	}
}

func TestDatasetRoundtrip(t *testing.T) {
	s := openTemp(t)
	if err := s.SaveCatalogSpecs(datahub.NLPBenchmarks(), datahub.NLPTargets()); err != nil {
		t.Fatal(err)
	}
	names, err := s.ListDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 28 {
		t.Fatalf("stored %d datasets", len(names))
	}
	spec, err := s.GetDataset("glue/cola")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Classes != 2 || !spec.Benchmark {
		t.Fatalf("roundtrip spec %+v", spec)
	}
}

func TestMatrixRoundtrip(t *testing.T) {
	s := openTemp(t)
	w := synth.NewWorld(42)
	repo, err := modelhub.NewRepository(w, datahub.TaskNLP, modelhub.NLPSpecs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	var benches []*datahub.Dataset
	for _, spec := range datahub.NLPBenchmarks()[:2] {
		d, err := datahub.Generate(w, spec, datahub.Sizes{Train: 30, Val: 20, Test: 30})
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, d)
	}
	m, err := perfmatrix.Build(repo, benches, trainer.Default(datahub.TaskNLP), 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutMatrix("nlp", m); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetMatrix("nlp")
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Perf(m.Models[0], m.Datasets[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Perf(m.Models[0], m.Datasets[0])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("matrix changed across store roundtrip")
	}
	mats, err := s.ListMatrices()
	if err != nil {
		t.Fatal(err)
	}
	if len(mats) != 1 || mats[0] != "nlp" {
		t.Fatalf("matrices = %v", mats)
	}
}

// TestRecallArtifactRoundtrip: the clustering-stage artifact persists and
// reloads losslessly, and GetMissing-style lookups fail cleanly.
func TestRecallArtifactRoundtrip(t *testing.T) {
	s := openTemp(t)
	art := &recall.Artifact{
		Task: "nlp", Seed: 42, SimilarityK: 5, Threshold: 0.08, Scorer: "leep-calibrated",
		Models: []string{"m0", "m1", "m2"}, Assign: []int{0, 1, 0}, Clusters: 2,
	}
	if err := s.PutRecall("nlp-seed42", art); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetRecall("nlp-seed42")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, art) {
		t.Fatalf("recall artifact changed across roundtrip: %+v vs %+v", got, art)
	}
	names, err := s.ListRecalls()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "nlp-seed42" {
		t.Fatalf("recalls = %v", names)
	}
	if _, err := s.GetRecall("nope"); err == nil {
		t.Fatal("missing recall artifact accepted")
	}
}

func TestOverwrite(t *testing.T) {
	s := openTemp(t)
	spec := modelhub.NLPSpecs()[0]
	if err := s.PutModel(spec); err != nil {
		t.Fatal(err)
	}
	spec.Capability = 0.99
	if err := s.PutModel(spec); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetModel(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Capability != 0.99 {
		t.Fatal("overwrite did not take")
	}
	names, err := s.ListModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatal("overwrite duplicated entry")
	}
}

// TestWorldArtifactsHaveOneEncoding: matrices and recalls exist only as
// codec documents. A stray JSON file in a world-artifact directory is not
// an artifact — never read, served or listed — and a matrix the codec
// refuses is an error that leaves nothing on disk.
func TestWorldArtifactsHaveOneEncoding(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "matrices", "x.json")
	if err := os.WriteFile(stray, []byte(`{"task":"nlp","models":[],"datasets":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetMatrix("x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetMatrix over a stray JSON file = %v, want ErrNotFound", err)
	}
	if _, _, err := s.OpenArtifact("matrices", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("OpenArtifact over a stray JSON file = %v, want ErrNotFound", err)
	}
	if names, err := s.ListMatrices(); err != nil || len(names) != 0 {
		t.Fatalf("ListMatrices = %v, %v, want none", names, err)
	}
	if got := listDir(t, filepath.Join(dir, "matrices")); len(got) != 1 || got[0] != "x.json" {
		t.Fatalf("matrices/ = %v, want the stray file untouched and nothing migrated", got)
	}

	ragged := sweepMatrix()
	ragged.Datasets = append(ragged.Datasets, "d1") // no entry for (m0, d1)
	if err := s.PutMatrix("ragged", ragged); err == nil || !strings.Contains(err.Error(), "ragged") {
		t.Fatalf("PutMatrix of a ragged matrix = %v, want the encoder's refusal", err)
	}
	if got := listDir(t, filepath.Join(dir, "matrices")); len(got) != 1 {
		t.Fatalf("refused PutMatrix left files behind: %v", got)
	}
}
