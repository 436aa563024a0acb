package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"twophase/internal/artifact"
	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/perfmatrix"
	"twophase/internal/recall"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

// unslug inverts slug (minus the ".bin" suffix, which the caller strips).
// Nothing in the store lists a directory back into names any more; it
// survives as the decoding oracle of the injectivity tests.
func unslug(base string) string {
	n := strings.ReplaceAll(base, "__", "/")
	r := strings.NewReplacer("%20", " ", "%5F", "_", "%25", "%")
	return r.Replace(n)
}

// namedMatrix is sweepMatrix stamped with a distinguishing seed, so a test
// can tell which Put a Get read back.
func namedMatrix(seed uint64) *perfmatrix.Matrix {
	m := sweepMatrix()
	m.Seed = seed
	return m
}

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSlashNamesSurvive(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutMatrix("org/sub/world-v2", sweepMatrix()); err != nil {
		t.Fatal(err)
	}
	files := listDir(t, filepath.Join(dir, "matrices"))
	if len(files) != 1 || unslug(strings.TrimSuffix(files[0], ".bin")) != "org/sub/world-v2" {
		t.Fatalf("matrices/ = %v, want one flat file that decodes to the name", files)
	}
	if _, err := s.GetMatrix("org/sub/world-v2"); err != nil {
		t.Fatal(err)
	}
}

// TestSlugCollisionSafe: names that the old slugging collapsed onto one
// file ("a/b" vs "a__b", "a b" vs "a_b") must each round-trip to their own
// artifact, one file per name.
func TestSlugCollisionSafe(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a/b", "a__b", "a b", "a_b", "a%5Fb", "pct%name", "tri___ple"}
	for i, name := range names {
		if err := s.PutMatrix(name, namedMatrix(uint64(i+1))); err != nil {
			t.Fatalf("put %q: %v", name, err)
		}
	}
	if got := listDir(t, filepath.Join(dir, "matrices")); len(got) != len(names) {
		t.Fatalf("stored %d names, %d files: %v", len(names), len(got), got)
	}
	for i, name := range names {
		m, err := s.GetMatrix(name)
		if err != nil {
			t.Fatalf("get %q: %v", name, err)
		}
		if m.Seed != uint64(i+1) {
			t.Fatalf("name %q read back seed %d — collision overwrote it", name, m.Seed)
		}
	}
}

func TestSlugRoundTrip(t *testing.T) {
	for _, name := range []string{"plain", "a/b/c", "a b c", "under_score", "%", "%25", "__", "mix_ %/x"} {
		file := slug(name)
		if got := unslug(strings.TrimSuffix(file, ".bin")); got != name {
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
	if _, err := s.GetMatrix("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing matrix = %v, want ErrNotFound", err)
	}
	if _, err := s.GetRecall("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing recall artifact = %v, want ErrNotFound", err)
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
}

// TestRecallArtifactRoundtrip: the clustering-stage artifact persists and
// reloads losslessly.
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
}

func TestOverwrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutMatrix("nlp", namedMatrix(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMatrix("nlp", namedMatrix(2)); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetMatrix("nlp")
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 2 {
		t.Fatal("overwrite did not take")
	}
	if files := listDir(t, filepath.Join(dir, "matrices")); len(files) != 1 {
		t.Fatalf("overwrite duplicated entry: %v", files)
	}
}

// TestPutVerifiedGatesChecksumAndKind: fetched bytes land only when their
// checksum holds and their codec kind is the one the kind table files under
// that directory; a directory outside the table is not a kind at all.
func TestPutVerifiedGatesChecksumAndKind(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := artifact.EncodeMatrix(sweepMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutVerified("matrices", "w", doc); err != nil {
		t.Fatal(err)
	}
	if got, err := s.OpenArtifact("matrices", "w"); err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("OpenArtifact after PutVerified = %d bytes, %v; want the document back", len(got), err)
	}
	flipped := append([]byte(nil), doc...)
	flipped[len(flipped)-1] ^= 0xFF
	for _, tc := range []struct {
		why, kind string
		data      []byte
	}{
		{"failed checksum", "matrices", flipped},
		{"matrix filed under recalls/", "recalls", doc},
		{"directory outside the kind table", "models", doc},
	} {
		if err := s.PutVerified(tc.kind, "x", tc.data); err == nil {
			t.Errorf("%s: PutVerified accepted it", tc.why)
		}
	}
	if got := listDir(t, filepath.Join(dir, "matrices")); !reflect.DeepEqual(got, []string{"w.bin"}) {
		t.Errorf("matrices/ = %v, want only the verified document", got)
	}
	for _, kind := range []string{"recalls", "models"} {
		if got := listDir(t, filepath.Join(dir, kind)); len(got) != 0 {
			t.Errorf("a refused PutVerified left %v in %s/", got, kind)
		}
	}
	if _, err := s.OpenArtifact("models", "w"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("OpenArtifact of a directory outside the kind table = %v, want ErrNotFound", err)
	}
}

// TestWorldArtifactsHaveOneEncoding: matrices and recalls exist only as
// codec documents. A stray JSON file in a world-artifact directory is not
// an artifact — never read, served, swept or migrated — and a matrix the
// codec refuses is an error that leaves nothing on disk.
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
	if _, err := s.OpenArtifact("matrices", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("OpenArtifact over a stray JSON file = %v, want ErrNotFound", err)
	}
	if rep, err := s.Sweep(); err != nil || len(rep.Moved) != 0 {
		t.Fatalf("Sweep over a stray JSON file = %+v, %v, want it left alone", rep, err)
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
