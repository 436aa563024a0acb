package core_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"twophase/internal/artifact"
	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/modelhub"
)

// TestStoredArtifactBytesPinned pins the offline build's persisted output
// for two fixed worlds: the stored matrix (every validation word and final
// test word) and the stored clustering must stay byte-identical to the
// digests recorded when the format became version 2. At that change every
// validation word was checked equal to version 1's and every final test
// word equal to version 1's last-epoch test word, for both worlds; the
// recall digests moved with the header's version field alone.
func TestStoredArtifactBytesPinned(t *testing.T) {
	for _, w := range []struct {
		task           string
		seed           uint64
		matrix, recall string
	}{
		{datahub.TaskNLP, 0,
			"8c9f734d992941fd6d78ab1c45a5f95aa3cfc4418fcebc52b998fbcef60b716e",
			"352ea56c49c144a536d63c695ee662232a369ee1df3d0844d244c506ea090c82"},
		{datahub.TaskCV, 7,
			"4f17c777a12bc7624fcf2ba7a44d7b1e60bdb425a06f52919089a99291933b18",
			"a8685c1770ceb5223ebd79e61a0173300f310557156cb0b73b00a57e42de93f9"},
	} {
		fw, err := core.Build(core.Options{Task: w.task, Seed: w.seed, Sizes: goldenSizes})
		if err != nil {
			t.Fatal(err)
		}
		mb, err := artifact.EncodeMatrix(fw.Matrix)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(mb)); got != w.matrix {
			t.Errorf("%s seed %d: matrix artifact digest %s, want %s", w.task, w.seed, got, w.matrix)
		}
		rb, err := artifact.EncodeRecall(fw.RecallArtifact())
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(rb)); got != w.recall {
			t.Errorf("%s seed %d: recall artifact digest %s, want %s", w.task, w.seed, got, w.recall)
		}
	}
}

// TestBuildReleasesBenchmarkFrames: the offline build trains every model
// on every benchmark split through the models' feature caches; once the
// matrix exists nothing asks for those splits again, so Build must leave
// every cache empty, and the first select must extract the target splits it
// reads and nothing else: the train split for a scored representative,
// train and val for a recalled candidate, the test split for the winner
// alone. Nor does the built framework keep a benchmark dataset: the first
// Get of each benchmark name generates it.
func TestBuildReleasesBenchmarkFrames(t *testing.T) {
	fw, err := core.Build(core.Options{Task: datahub.TaskNLP, Seed: 11, Sizes: goldenSizes})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range fw.Repo.Models() {
		if n := m.CachedSplits(); n != 0 {
			t.Fatalf("%s holds %d cached extractions after Build, want 0", m.Name, n)
		}
	}

	target := fw.Catalog.Targets()[0]
	before := modelhub.Extractions()
	rep, err := fw.SelectWith(context.Background(), target, core.SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Proxy scoring reads a representative's train split; fine selection
	// trains every recalled model (train) and decides on validation (val);
	// only the winner's run is asked for test accuracy.
	want := make(map[string]int)
	for _, name := range rep.Recall.Representatives {
		want[name] = 1
	}
	for _, name := range rep.Recall.Recalled {
		want[name] = 2
	}
	want[rep.Outcome.Winner]++
	var total int64
	for _, m := range fw.Repo.Models() {
		if got := m.CachedSplits(); got != want[m.Name] {
			t.Errorf("%s holds %d cached extractions after one select, want %d", m.Name, got, want[m.Name])
		}
		total += int64(want[m.Name])
	}
	if got := modelhub.Extractions() - before; got != total {
		t.Fatalf("first select ran %d extraction passes, want %d (target splits only)", got, total)
	}

	for _, name := range fw.Catalog.BenchmarkNames() {
		gen := datahub.Generations()
		if _, err := fw.Catalog.Get(name); err != nil {
			t.Fatal(err)
		}
		if got := datahub.Generations() - gen; got != 1 {
			t.Fatalf("first Get of benchmark %s after Build generated %d datasets, want 1 (the framework kept it)", name, got)
		}
	}
}

// TestConcurrentColdSelectsShareSourceHeadPasses: many requests for one
// target racing on a cold framework must coalesce on one source-head pass
// per scored representative, and must all get the same report. Run with
// -race.
func TestConcurrentColdSelectsShareSourceHeadPasses(t *testing.T) {
	fw, err := core.Build(core.Options{Task: datahub.TaskNLP, Seed: 11, Sizes: goldenSizes})
	if err != nil {
		t.Fatal(err)
	}
	target := fw.Catalog.Targets()[0]

	const clients = 16
	reports := make([]*core.Report, clients)
	errs := make([]error, clients)
	before := modelhub.SourceHeadPasses()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reports[g], errs[g] = fw.SelectWith(context.Background(), target, core.SelectOptions{})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", g, err)
		}
	}
	if got, want := modelhub.SourceHeadPasses()-before, int64(reports[0].Recall.ScoredModels); got != want {
		t.Fatalf("%d concurrent cold selects ran %d source-head passes, want %d (one per representative)", clients, got, want)
	}
	for g := 1; g < clients; g++ {
		if !reflect.DeepEqual(reports[g], reports[0]) {
			t.Fatalf("client %d's report differs from client 0's", g)
		}
	}

	// Warm: further selects run no source-head pass at all.
	before = modelhub.SourceHeadPasses()
	if _, err := fw.SelectWith(context.Background(), target, core.SelectOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := modelhub.SourceHeadPasses() - before; got != 0 {
		t.Fatalf("warm select ran %d source-head passes, want 0", got)
	}
}

// TestCatalogSweepStaysResident: single-target selects rotating over every
// target of the catalog — the access pattern that overflowed a fixed-size
// per-model feature cache and made every request re-extract — pay for
// extraction and source-head inference on the first lap only. Laps two and
// three run neither, and answer exactly what lap one answered.
func TestCatalogSweepStaysResident(t *testing.T) {
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		fw, err := core.Build(core.Options{Task: task, Seed: 11, Sizes: goldenSizes})
		if err != nil {
			t.Fatal(err)
		}
		targets := fw.Catalog.Targets()
		lap := func() []*core.Report {
			t.Helper()
			reps := make([]*core.Report, len(targets))
			for i, target := range targets {
				rep, err := fw.SelectWith(context.Background(), target, core.SelectOptions{})
				if err != nil {
					t.Fatalf("%s %s: %v", task, target.Name, err)
				}
				reps[i] = rep
			}
			return reps
		}
		first := lap()
		ext, head := modelhub.Extractions(), modelhub.SourceHeadPasses()
		for n := 2; n <= 3; n++ {
			if again := lap(); !reflect.DeepEqual(again, first) {
				t.Fatalf("%s: lap %d reports differ from lap 1", task, n)
			}
		}
		if e, h := modelhub.Extractions()-ext, modelhub.SourceHeadPasses()-head; e != 0 || h != 0 {
			t.Fatalf("%s: laps 2-3 over %d targets ran %d extraction and %d source-head passes, want 0 and 0",
				task, len(targets), e, h)
		}
	}
}
