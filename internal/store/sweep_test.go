package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/faultinject"
	"twophase/internal/perfmatrix"
	"twophase/internal/trainer"
)

// sweepMatrix builds a tiny encodable matrix for sweep tests.
func sweepMatrix() *perfmatrix.Matrix {
	m := &perfmatrix.Matrix{
		Task:     "nlp",
		Epochs:   2,
		Seed:     42,
		HP:       trainer.Hyperparams{LearningRate: 0.1, BatchSize: 8, Epochs: 2, L2: 1e-4},
		Sizes:    datahub.Sizes{Train: 60, Val: 40, Test: 48},
		Models:   []string{"m0"},
		Datasets: []string{"d0"},
		Entries: map[string]*perfmatrix.Entry{
			"m0\x00d0": {Model: "m0", Dataset: "d0", Val: []float64{0.1, 0.2}, Test: []float64{0.3, 0.4}},
		},
	}
	return m
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestOpenSweepsOrphansAndCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.PutMatrix("nlp", sweepMatrix()); err != nil {
		t.Fatal(err)
	}
	// Litter the store like a crashed writer and a corrupting disk would.
	litter := func() {
		t.Helper()
		for _, f := range []struct{ kind, name, body string }{
			{"matrices", "nlp.bin.tmp123456", "partial write"},
			{"matrices", "bad.bin", "not an artifact"},
			{"recalls", "broken.bin", "TPAF truncated"},
		} {
			if err := os.WriteFile(filepath.Join(dir, f.kind, f.name), []byte(f.body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	litter()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The good artifact survived the sweep and still reads.
	if _, err := s2.GetMatrix("nlp"); err != nil {
		t.Fatalf("good matrix swept away: %v", err)
	}
	// Every planted bad file left its kind directory...
	if got := listDir(t, filepath.Join(dir, "matrices")); !reflect.DeepEqual(got, []string{"nlp.bin"}) {
		t.Fatalf("sweep left %v in matrices/", got)
	}
	if got := listDir(t, filepath.Join(dir, "recalls")); len(got) != 0 {
		t.Fatalf("sweep left %v in recalls/", got)
	}
	// ...and landed in quarantine.
	if got := listDir(t, filepath.Join(dir, QuarantineDir, "matrices")); !reflect.DeepEqual(got, []string{"bad.bin", "nlp.bin.tmp123456"}) {
		t.Fatalf("quarantine/matrices = %v, want the orphan and bad.bin", got)
	}
	if got := listDir(t, filepath.Join(dir, QuarantineDir, "recalls")); !reflect.DeepEqual(got, []string{"broken.bin"}) {
		t.Fatalf("quarantine/recalls = %v", got)
	}

	// The report walks the kind table in declaration order and each
	// directory in name order, so it reads the same on every run.
	litter()
	rep, err := s2.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	want := SweepReport{Orphans: 1, Corrupt: 2, Moved: []string{
		filepath.Join(QuarantineDir, "matrices", "bad.bin"),
		filepath.Join(QuarantineDir, "matrices", "nlp.bin.tmp123456"),
		filepath.Join(QuarantineDir, "recalls", "broken.bin"),
	}}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("sweep report = %+v, want %+v", rep, want)
	}
}

func TestSweepUniquifiesQuarantineCollisions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := os.WriteFile(filepath.Join(dir, "recalls", "bad.bin"), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Sweep()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Corrupt != 1 {
			t.Fatalf("sweep %d: report %+v", i, rep)
		}
	}
	q := listDir(t, filepath.Join(dir, QuarantineDir, "recalls"))
	if len(q) != 2 {
		t.Fatalf("quarantine/recalls = %v, want two uniquified entries", q)
	}
}

func TestCorruptReadQuarantines(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutMatrix("nlp", sweepMatrix()); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the binary artifact's body: the checksum must catch
	// it, and the read must quarantine the file so it is never decoded
	// again or allowed to shadow a healing rewrite.
	path := filepath.Join(dir, "matrices", "nlp.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetMatrix("nlp"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetMatrix on corrupt artifact = %v, want ErrCorrupt", err)
	}
	if _, err := os.Lstat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt artifact still in place after read")
	}
	if got := listDir(t, filepath.Join(dir, QuarantineDir, "matrices")); len(got) != 1 {
		t.Fatalf("quarantine/matrices = %v", got)
	}
	// With the corrupt file quarantined the artifact is now simply
	// absent: the caller rebuilds, and the rewrite heals the store.
	if _, err := s.GetMatrix("nlp"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after quarantine: %v, want ErrNotFound", err)
	}
	if err := s.PutMatrix("nlp", sweepMatrix()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetMatrix("nlp"); err != nil {
		t.Fatalf("healing rewrite failed to serve: %v", err)
	}
}

func TestWriteFaultSitesAndTornOrphans(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A torn write fails the Put and leaves an orphaned temp file — the
	// exact litter the sweep exists to clean.
	inj, err := faultinject.Parse("store.write:torn:0.5#1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(inj)
	if err := s.PutMatrix("m", sweepMatrix()); !errors.Is(err, faultinject.ErrInjected) {
		faultinject.Reset()
		t.Fatalf("torn write = %v, want ErrInjected", err)
	}
	faultinject.Reset()
	orphans := 0
	for _, name := range listDir(t, filepath.Join(dir, "matrices")) {
		if isOrphanTemp(name) {
			orphans++
		}
	}
	if orphans != 1 {
		t.Fatalf("torn write left %d orphans, want 1", orphans)
	}
	rep, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphans != 1 {
		t.Fatalf("sweep report %+v, want 1 orphan", rep)
	}

	// A failed fsync aborts before rename: no artifact lands, and the
	// next write (fault drained) succeeds.
	inj, err = faultinject.Parse("store.fsync:err#1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(inj)
	defer faultinject.Reset()
	if err := s.PutMatrix("m", sweepMatrix()); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("fsync fault = %v, want ErrInjected", err)
	}
	if _, err := s.GetMatrix("m"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("artifact landed despite failed fsync: %v", err)
	}
	if err := s.PutMatrix("m", sweepMatrix()); err != nil {
		t.Fatalf("write after drained schedule: %v", err)
	}
	if _, err := s.GetMatrix("m"); err != nil {
		t.Fatal(err)
	}
}

func TestReadFaultIsTransientNotMissing(t *testing.T) {
	s := openTemp(t)
	if err := s.PutMatrix("nlp", sweepMatrix()); err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.Parse("store.read:err#1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(inj)
	defer faultinject.Reset()
	_, err = s.GetMatrix("nlp")
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected read fault = %v", err)
	}
	// Crucially NOT a miss and NOT corruption: a transient I/O error must
	// never silently trigger a rebuild or a quarantine.
	if errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("read fault mapped to %v", err)
	}
	if _, err := s.GetMatrix("nlp"); err != nil {
		t.Fatalf("read after drained schedule: %v", err)
	}
}
