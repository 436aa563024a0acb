package service

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/perfmatrix"
	"twophase/internal/store"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

// tinySizes keeps offline builds fast enough to run several per test
// binary (including under -race) while preserving the full 40x24 matrix
// shape.
var tinySizes = datahub.Sizes{Train: 60, Val: 40, Test: 48}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	if opts.Base.Seed == 0 {
		opts.Base.Seed = 42
	}
	if opts.Base.Sizes == (datahub.Sizes{}) {
		opts.Base.Sizes = tinySizes
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// framework leases the task family's base-seed world, building or loading
// it on first use, and hands back its framework — for tests that inspect
// or tamper with the world a request will be served from.
func framework(ctx context.Context, s *Service, task string) (*core.Framework, error) {
	h, err := s.acquire(ctx, task, s.opts.Base.Seed)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	return h.Framework(), nil
}

// nlpTargets is the NLP family's target catalog, from the registry.
func nlpTargets(t *testing.T) []string {
	t.Helper()
	names, err := datahub.TargetNames(datahub.TaskNLP)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// selectAll serves two-phase selections through Do, the one entry point
// the dispatcher calls, for the named targets.
func selectAll(ctx context.Context, s *Service, targets ...string) ([]Result, error) {
	return s.Do(ctx, Request{Task: datahub.TaskNLP, Targets: targets})
}

// selectOne is selectAll for a single target.
func selectOne(ctx context.Context, s *Service, target string) (*core.Report, error) {
	results, err := selectAll(ctx, s, target)
	if err != nil {
		return nil, err
	}
	return results[0].Report, results[0].Err
}

func TestFrameworkSingleflight(t *testing.T) {
	s := newTestService(t, Options{})
	const callers = 8
	fws := make([]*core.Framework, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fw, err := framework(context.Background(), s, datahub.TaskNLP)
			if err != nil {
				t.Error(err)
				return
			}
			fws[i] = fw
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if fws[i] != fws[0] {
			t.Fatalf("caller %d got a different framework instance", i)
		}
	}
	if got := s.Builds(); got != 1 {
		t.Fatalf("%d offline builds for %d concurrent callers, want 1", got, callers)
	}
	// A later call still hits the cache.
	if _, err := framework(context.Background(), s, datahub.TaskNLP); err != nil {
		t.Fatal(err)
	}
	if got := s.Builds(); got != 1 {
		t.Fatalf("%d builds after cache hit, want 1", got)
	}
}

func TestFrameworkBadTaskNotCached(t *testing.T) {
	s := newTestService(t, Options{})
	if _, err := framework(context.Background(), s, "audio"); err == nil {
		t.Fatal("unknown task accepted")
	}
	// The failed flight must not poison the cell: a valid family still
	// builds, and the bad one still errors.
	if _, err := framework(context.Background(), s, datahub.TaskNLP); err != nil {
		t.Fatal(err)
	}
	if _, err := framework(context.Background(), s, "audio"); err == nil {
		t.Fatal("unknown task accepted on retry")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	first := newTestService(t, Options{StoreDir: dir})
	reportA, err := selectOne(context.Background(), first, "tweet_eval")
	if err != nil {
		t.Fatal(err)
	}
	if first.Builds() != 1 {
		t.Fatalf("first service ran %d builds, want 1", first.Builds())
	}

	// A second process over the same store must serve without rebuilding
	// and return the identical report.
	second := newTestService(t, Options{StoreDir: dir})
	reportB, err := selectOne(context.Background(), second, "tweet_eval")
	if err != nil {
		t.Fatal(err)
	}
	if second.Builds() != 0 {
		t.Fatalf("second service ran %d builds, want 0 (store hit)", second.Builds())
	}
	if !reflect.DeepEqual(reportA, reportB) {
		t.Fatalf("store-served report differs from fresh build:\n%+v\nvs\n%+v", reportA, reportB)
	}
}

func TestStoreMismatchRebuilds(t *testing.T) {
	dir := t.TempDir()
	first := newTestService(t, Options{StoreDir: dir, Base: core.Options{Seed: 42, Sizes: tinySizes}})
	if _, err := framework(context.Background(), first, datahub.TaskNLP); err != nil {
		t.Fatal(err)
	}
	// Same store, different world seed: the persisted matrix describes a
	// different world, so the service must rebuild rather than serve it.
	other := newTestService(t, Options{StoreDir: dir, Base: core.Options{Seed: 7, Sizes: tinySizes}})
	if _, err := framework(context.Background(), other, datahub.TaskNLP); err != nil {
		t.Fatal(err)
	}
	if other.Builds() != 1 {
		t.Fatalf("mismatched store served without rebuild (%d builds)", other.Builds())
	}
}

func TestStoreHyperparamMismatchRebuilds(t *testing.T) {
	dir := t.TempDir()
	// Same store, same seed, different learning rate: model and dataset
	// name sets are identical (they come from static registries), so only
	// the matrix's recorded provenance can catch this — convergence
	// curves trained at the low LR must not steer selection at the
	// default one.
	w := synth.NewWorld(42)
	cat, err := datahub.NewTaskCatalog(w, datahub.TaskNLP, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := modelhub.NewTaskRepository(w, datahub.TaskNLP)
	if err != nil {
		t.Fatal(err)
	}
	lowLR, err := perfmatrix.Build(repo, cat.Benchmarks(), trainer.LowLR(datahub.TaskNLP), 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutMatrix(matrixKey(datahub.TaskNLP, 42), lowLR); err != nil {
		t.Fatal(err)
	}
	low := newTestService(t, Options{StoreDir: dir, Base: core.Options{Seed: 42, Sizes: tinySizes}})
	if _, err := framework(context.Background(), low, datahub.TaskNLP); err != nil {
		t.Fatal(err)
	}
	if low.Builds() != 1 {
		t.Fatalf("hyperparam-mismatched store served without rebuild (%d builds)", low.Builds())
	}
	// Different benchmark split sizes with identical seed and HP must
	// also rebuild.
	sized := newTestService(t, Options{StoreDir: dir, Base: core.Options{
		Seed:  42,
		Sizes: datahub.Sizes{Train: 80, Val: 40, Test: 48},
	}})
	if _, err := framework(context.Background(), sized, datahub.TaskNLP); err != nil {
		t.Fatal(err)
	}
	if sized.Builds() != 1 {
		t.Fatalf("size-mismatched store served without rebuild (%d builds)", sized.Builds())
	}
}

// TestParallelMatchesSequential is the golden identity check, as a
// property: seeded random (Workers, BuildWorkers, Concurrency) triples from
// [-1, 8] — per-CPU, serial and fixed widths mixed — build the same .bin
// files and answer the same reports (winners, stage pools, accuracies,
// ledgers) as the all-serial (1, 1, 1) service, byte for byte. It is the
// proof that every width can be handed to fanout as it stands.
func TestParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	// Two requests per service: the default two-phase batch, and a batch
	// whose lsq pre-filter fans out under Workers as well.
	serve := func(o Options) ([][]Result, map[string][]byte) {
		o.StoreDir = t.TempDir()
		s := newTestService(t, o)
		var batches [][]Result
		for _, req := range []Request{
			{Task: datahub.TaskNLP},
			{Task: datahub.TaskNLP, Strategy: core.StrategySH, PrefilterTopK: 6},
		} {
			req.Targets = nlpTargets(t)
			results, err := s.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				if r.Err != nil {
					t.Fatalf("%+v: target %s: %v", o, r.Target, r.Err)
				}
			}
			batches = append(batches, results)
		}
		if err := s.PersistErr(); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, kind := range []string{"matrices", "recalls"} {
			name := filepath.Join(kind, "nlp-seed42.bin")
			data, err := os.ReadFile(filepath.Join(o.StoreDir, name))
			if err != nil {
				t.Fatal(err)
			}
			files[name] = data
		}
		return batches, files
	}
	widths := func(workers, buildWorkers, concurrency int) Options {
		return Options{Base: core.Options{Workers: workers, BuildWorkers: buildWorkers}, Concurrency: concurrency}
	}
	wantReports, wantFiles := serve(widths(1, 1, 1))
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3; trial++ {
		o := widths(rng.Intn(10)-1, rng.Intn(10)-1, rng.Intn(10)-1)
		at := fmt.Sprintf("widths (%d, %d, %d)", o.Base.Workers, o.Base.BuildWorkers, o.Concurrency)
		t.Logf("trial %d: %s", trial, at)
		gotReports, gotFiles := serve(o)
		if !reflect.DeepEqual(gotReports, wantReports) {
			t.Fatalf("%s: reports differ from the (1, 1, 1) run", at)
		}
		for name, want := range wantFiles {
			if !bytes.Equal(gotFiles[name], want) {
				t.Fatalf("%s: %s differs from the (1, 1, 1) build", at, name)
			}
		}
	}
}

func TestSelectAllDeterministicAndOrdered(t *testing.T) {
	s := newTestService(t, Options{})
	targets := nlpTargets(t)
	a, err := selectAll(context.Background(), s, targets...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := selectAll(context.Background(), s, targets...)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(targets) {
		t.Fatalf("%d results for %d targets", len(a), len(targets))
	}
	for i := range a {
		if a[i].Target != targets[i] {
			t.Fatalf("result %d is %q, want request order %q", i, a[i].Target, targets[i])
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("batch not deterministic at %s", targets[i])
		}
	}
}

func TestSelectAllPartialFailure(t *testing.T) {
	s := newTestService(t, Options{})
	results, err := selectAll(context.Background(), s, "tweet_eval", "no-such-dataset")
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Report == nil {
		t.Fatalf("valid target failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("unknown target in batch did not error")
	}
}

// TestPanickingSelectionCostsOneTarget: a selection that panics (here a
// world whose target carries a negative label) answers its own target
// with the service's typed message and is counted in Panics; the rest of
// the batch is served. It holds whether the panic is recovered by the
// batch's own fan-out (two-phase dies in the proxy scorer, on the caller's
// goroutine at Concurrency 1) or by a stage's fan-out below it (lsq dies
// in a fit, on lsq.Rank's pool).
func TestPanickingSelectionCostsOneTarget(t *testing.T) {
	for _, c := range []struct {
		concurrency int
		strategy    core.Strategy
	}{{1, core.StrategyTwoPhase}, {2, core.StrategyLSQ}} {
		s := newTestService(t, Options{Concurrency: c.concurrency})
		fw, err := framework(context.Background(), s, datahub.TaskNLP)
		if err != nil {
			t.Fatal(err)
		}
		d, err := fw.Catalog.Get("tweet_eval")
		if err != nil {
			t.Fatal(err)
		}
		d.Train.Y[0] = -1
		results, err := s.Do(context.Background(), Request{Task: datahub.TaskNLP,
			Targets: []string{"tweet_eval", "super_glue/boolq"}, Strategy: c.strategy})
		if err != nil {
			t.Fatal(err)
		}
		if got := results[0].Err; got == nil || !strings.HasPrefix(got.Error(), `service: selection for "tweet_eval" panicked: `) {
			t.Fatalf("%s: panicking target answered %v", c.strategy, got)
		}
		if results[1].Err != nil || results[1].Report == nil {
			t.Fatalf("%s: the batch's other target failed: %v", c.strategy, results[1].Err)
		}
		if s.Panics() != 1 {
			t.Fatalf("%s: Panics() = %d, want 1", c.strategy, s.Panics())
		}
	}
}

func TestSharedCostLedger(t *testing.T) {
	s := newTestService(t, Options{})
	results, err := selectAll(context.Background(), s, nlpTargets(t)...)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		want += r.Report.TotalEpochs()
	}
	cost := s.Cost()
	if got := cost.Total(); got != want {
		t.Fatalf("shared ledger %v epochs, want sum of per-request ledgers %v", got, want)
	}
}

// TestPersistWritesWorldArtifactsOnly: one offline build with a store
// leaves exactly the two documents the paper's offline phase produces per
// world — the performance matrix and the clustering — and nothing else.
func TestPersistWritesWorldArtifactsOnly(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, Options{StoreDir: dir})
	if _, err := framework(context.Background(), s, datahub.TaskNLP); err != nil {
		t.Fatal(err)
	}
	if err := s.PersistErr(); err != nil {
		t.Fatal(err)
	}
	var got []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		got = append(got, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"matrices", "matrices/nlp-seed42.bin", "recalls", "recalls/nlp-seed42.bin"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store tree after one build = %v, want %v", got, want)
	}
}

// TestStoreCorruptArtifactRebuilds covers the fallback path end to end: a
// corrupt persisted matrix must not fail the service — it triggers a
// fresh offline build whose artifacts overwrite the bad file, healing the
// store for the next process.
func TestStoreCorruptArtifactRebuilds(t *testing.T) {
	dir := t.TempDir()
	first := newTestService(t, Options{StoreDir: dir})
	reportA, err := selectOne(context.Background(), first, "tweet_eval")
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "matrices", "nlp-seed42.bin")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("expected persisted matrix at %s: %v", path, err)
	}
	// Garbage that fails the binary format's checksum — the store must
	// surface it as corrupt (not absent), and the service must rebuild.
	if err := os.WriteFile(path, []byte("{definitely not a matrix"), 0o644); err != nil {
		t.Fatal(err)
	}

	second := newTestService(t, Options{StoreDir: dir})
	reportB, err := selectOne(context.Background(), second, "tweet_eval")
	if err != nil {
		t.Fatal(err)
	}
	if second.Builds() != 1 {
		t.Fatalf("corrupt artifact served without rebuild (%d builds)", second.Builds())
	}
	if err := second.PersistErr(); err != nil {
		t.Fatalf("rebuild failed to overwrite the corrupt artifact: %v", err)
	}
	if !reflect.DeepEqual(reportA, reportB) {
		t.Fatalf("rebuilt selection differs from original:\n%+v\nvs\n%+v", reportA, reportB)
	}

	// The overwrite healed the store: a third process serves from it.
	third := newTestService(t, Options{StoreDir: dir})
	reportC, err := selectOne(context.Background(), third, "tweet_eval")
	if err != nil {
		t.Fatal(err)
	}
	if third.Builds() != 0 {
		t.Fatalf("healed store not served (%d builds)", third.Builds())
	}
	if !reflect.DeepEqual(reportB, reportC) {
		t.Fatalf("store-served selection differs from rebuild:\n%+v\nvs\n%+v", reportB, reportC)
	}
}

// TestStorePersistDegradation covers the read-only/broken store volume:
// persistence fails, the framework still serves from memory, and the
// failure stays observable through PersistErr.
func TestStorePersistDegradation(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, Options{StoreDir: dir})
	// Break the matrices directory by replacing it with a regular file —
	// unlike permission bits, this fails writes even when tests run as
	// root.
	if err := os.RemoveAll(filepath.Join(dir, "matrices")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "matrices"), []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}

	report, err := selectOne(context.Background(), s, "tweet_eval")
	if err != nil {
		t.Fatalf("degraded store must still serve from memory: %v", err)
	}
	if report == nil || report.Outcome.Winner == "" {
		t.Fatalf("incomplete report from degraded service: %+v", report)
	}
	if s.PersistErr() == nil {
		t.Fatal("persist failure not surfaced via PersistErr")
	}
	// Serving keeps working after the failed persist (framework cached).
	if _, err := selectOne(context.Background(), s, "super_glue/boolq"); err != nil {
		t.Fatal(err)
	}
}

// TestDoSeedOverride: a per-request seed builds (and caches) a distinct
// framework world instead of silently reusing the base seed's.
func TestDoSeedOverride(t *testing.T) {
	s := newTestService(t, Options{})
	ctx := context.Background()
	if _, err := s.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}}); err != nil {
		t.Fatal(err)
	}
	if s.Builds() != 1 {
		t.Fatalf("%d builds after base-seed request, want 1", s.Builds())
	}
	seed := uint64(7)
	results, err := s.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if s.Builds() != 2 {
		t.Fatalf("%d builds after seed-override request, want 2 (distinct world)", s.Builds())
	}
	// Same override again hits the (task, seed) cache.
	if _, err := s.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, Seed: &seed}); err != nil {
		t.Fatal(err)
	}
	if s.Builds() != 2 {
		t.Fatalf("%d builds after repeat, want 2 (cache hit)", s.Builds())
	}
}
