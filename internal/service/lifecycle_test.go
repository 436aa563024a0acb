package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"twophase/internal/cluster"
	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/lifecycle"
)

// removeRecallArtifact deletes the persisted clustering artifact for a
// store key, simulating a store written before the staged pipeline.
func removeRecallArtifact(dir, key string) error {
	return os.Remove(filepath.Join(dir, "recalls", key+".bin"))
}

// TestWarmStartSkipsRecallRecompute is the acceptance check for the staged
// pipeline: with both the matrix and the clustering artifact persisted, a
// second process assembles without a single offline build or clustering
// pass, and its selections are bit-identical to the cold process's.
func TestWarmStartSkipsRecallRecompute(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	cold := newTestService(t, Options{StoreDir: dir})
	reportA, err := selectOne(ctx, cold, "tweet_eval")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Builds() != 1 {
		t.Fatalf("cold service ran %d builds, want 1", cold.Builds())
	}

	warm := newTestService(t, Options{StoreDir: dir})
	before := cluster.Passes()
	reportB, err := selectOne(ctx, warm, "tweet_eval")
	if err != nil {
		t.Fatal(err)
	}
	if got := cluster.Passes() - before; got != 0 {
		t.Fatalf("warm start ran %d clustering passes, want 0", got)
	}
	if warm.Builds() != 0 {
		t.Fatalf("warm service ran %d builds, want 0", warm.Builds())
	}
	if !reflect.DeepEqual(reportA, reportB) {
		t.Fatalf("warm-start selection differs from cold:\n%+v\nvs\n%+v", reportA, reportB)
	}

	fw, err := framework(ctx, warm, datahub.TaskNLP)
	if err != nil {
		t.Fatal(err)
	}
	if !fw.Stages.MatrixLoaded || !fw.Stages.RecallLoaded {
		t.Fatalf("warm framework stages: %+v", fw.Stages)
	}
}

// TestRecallArtifactHealing: a store holding only the matrix (e.g. written
// by an older process) serves without a rebuild, recomputes just the
// clustering stage, and persists it so the third process loads both.
func TestRecallArtifactHealing(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	first := newTestService(t, Options{StoreDir: dir})
	if _, err := framework(ctx, first, datahub.TaskNLP); err != nil {
		t.Fatal(err)
	}
	// Drop the clustering artifact (the build must have written it), keep
	// the matrix.
	key := matrixKey(datahub.TaskNLP, 42)
	if err := removeRecallArtifact(dir, key); err != nil {
		t.Fatal(err)
	}

	second := newTestService(t, Options{StoreDir: dir})
	before := cluster.Passes()
	fw, err := framework(ctx, second, datahub.TaskNLP)
	if err != nil {
		t.Fatal(err)
	}
	if second.Builds() != 0 {
		t.Fatalf("matrix-only store forced %d builds, want 0", second.Builds())
	}
	if got := cluster.Passes() - before; got != 1 {
		t.Fatalf("matrix-only start ran %d clustering passes, want exactly 1", got)
	}
	if !fw.Stages.MatrixLoaded || fw.Stages.RecallLoaded {
		t.Fatalf("matrix-only stages: %+v", fw.Stages)
	}

	// The recompute healed the store: the next process loads both stages.
	third := newTestService(t, Options{StoreDir: dir})
	before = cluster.Passes()
	fw3, err := framework(ctx, third, datahub.TaskNLP)
	if err != nil {
		t.Fatal(err)
	}
	if got := cluster.Passes() - before; got != 0 {
		t.Fatalf("healed store still ran %d clustering passes", got)
	}
	if !fw3.Stages.RecallLoaded {
		t.Fatalf("healed stages: %+v", fw3.Stages)
	}
}

// TestCacheEvictionUnderSeedChurn is the acceptance check for the bounded
// cache: more distinct seeds than capacity evict (visible in stats)
// without failing any request, and re-requesting an evicted world serves
// correctly again.
func TestCacheEvictionUnderSeedChurn(t *testing.T) {
	s := newTestService(t, Options{CacheSize: 1})
	ctx := context.Background()
	sel := func(seed *uint64) {
		t.Helper()
		res, err := s.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
	}
	sel(nil)
	seed := uint64(7)
	sel(&seed)
	st := s.CacheStats()
	if st.Capacity != 1 || st.Resident != 1 {
		t.Fatalf("cache stats after churn: %+v", st)
	}
	if st.Evictions != 1 {
		t.Fatalf("%d evictions for 2 worlds in a size-1 cache, want 1", st.Evictions)
	}
	// The evicted base world serves again — at the cost of a rebuild.
	sel(nil)
	if s.Builds() != 3 {
		t.Fatalf("%d builds, want 3 (base, seed 7, base again)", s.Builds())
	}
	if st := s.CacheStats(); st.InUse != 0 {
		t.Fatalf("leaked leases: %+v", st)
	}
	entries := s.mgr.Entries()
	if len(entries) != 1 || entries[0].Key.Seed != s.opts.Base.Seed || entries[0].BuildDuration <= 0 {
		t.Fatalf("cache entries after churn: %+v", entries)
	}
}

// TestEvictionDoesNotBreakInFlightSelection: requests pin their framework
// through a lease, so a concurrent eviction (smaller cache than active
// worlds) never invalidates an in-flight selection and both results stay
// bit-identical to a quiet run.
func TestEvictionDoesNotBreakInFlightSelection(t *testing.T) {
	quiet := newTestService(t, Options{})
	ctx := context.Background()
	seed7 := uint64(7)
	wantBase, err := quiet.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}})
	if err != nil {
		t.Fatal(err)
	}
	want7, err := quiet.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, Seed: &seed7})
	if err != nil {
		t.Fatal(err)
	}

	s := newTestService(t, Options{CacheSize: 1})
	var wg sync.WaitGroup
	var gotBase, got7 []Result
	var errBase, err7 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		gotBase, errBase = s.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval", "super_glue/boolq"}})
	}()
	go func() {
		defer wg.Done()
		got7, err7 = s.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, Seed: &seed7})
	}()
	wg.Wait()
	if errBase != nil || err7 != nil {
		t.Fatal(errBase, err7)
	}
	for _, r := range append(append([]Result{}, gotBase...), got7...) {
		if r.Err != nil {
			t.Fatalf("in-flight selection failed under eviction pressure: %s: %v", r.Target, r.Err)
		}
	}
	if !reflect.DeepEqual(gotBase[0].Report, wantBase[0].Report) {
		t.Fatal("base-world report differs under eviction pressure")
	}
	if !reflect.DeepEqual(got7[0].Report, want7[0].Report) {
		t.Fatal("seed-7 report differs under eviction pressure")
	}
	if st := s.CacheStats(); st.Resident > 1 || st.InUse != 0 {
		t.Fatalf("cache state after concurrent worlds: %+v", st)
	}
}

// TestDoCanceledSkipsQueuedTargets: a canceled batch must not queue and
// run its remaining selections — every target reports the context error.
func TestDoCanceledSkipsQueuedTargets(t *testing.T) {
	s := newTestService(t, Options{Concurrency: 1})
	ctx := context.Background()
	// Warm the framework so cancellation hits the fan-out, not the build.
	if _, err := framework(ctx, s, datahub.TaskNLP); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	targets := nlpTargets(t)
	results, err := s.Do(canceled, Request{Task: datahub.TaskNLP, Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(targets) {
		t.Fatalf("%d results for %d targets", len(results), len(targets))
	}
	for _, r := range results {
		if r.Report != nil {
			t.Fatalf("canceled batch still ran %s", r.Target)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("skipped %s records %v, want context.Canceled", r.Target, r.Err)
		}
	}
	cost := s.Cost()
	if total := cost.Total(); total != 0 {
		t.Fatalf("canceled batch burned %v epochs", total)
	}
}

// TestSeedPolicyAdmission covers the three policy shapes end to end: the
// rejection is typed, costs no build, and admitted seeds still serve.
func TestSeedPolicyAdmission(t *testing.T) {
	ctx := context.Background()
	seed7, seed8, seed9 := uint64(7), uint64(8), uint64(9)

	fixed := newTestService(t, Options{Seeds: SeedPolicy{Fixed: true}})
	if _, err := fixed.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, Seed: &seed7}); !errors.Is(err, ErrSeedRejected) {
		t.Fatalf("fixed policy: err = %v, want ErrSeedRejected", err)
	}
	if fixed.Builds() != 0 {
		t.Fatalf("rejected seed still built %d worlds", fixed.Builds())
	}
	// The base seed always passes (sent explicitly here).
	base := uint64(42)
	if _, err := fixed.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, Seed: &base}); err != nil {
		t.Fatal(err)
	}

	allow := newTestService(t, Options{Seeds: SeedPolicy{Allow: []uint64{7}}})
	if _, err := allow.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, Seed: &seed8}); !errors.Is(err, ErrSeedRejected) {
		t.Fatalf("allowlist: err = %v, want ErrSeedRejected", err)
	}
	if _, err := allow.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, Seed: &seed7}); err != nil {
		t.Fatalf("allowlisted seed rejected: %v", err)
	}

	capped := newTestService(t, Options{Seeds: SeedPolicy{MaxDistinct: 1}})
	if _, err := capped.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, Seed: &seed8}); err != nil {
		t.Fatalf("first distinct seed rejected: %v", err)
	}
	// The same seed is still admitted; a second distinct one is not.
	settle, err := capped.admitSeed(seed8)
	if err != nil {
		t.Fatalf("already-admitted seed rejected: %v", err)
	}
	settle(true)
	if _, err := capped.admitSeed(seed9); !errors.Is(err, ErrSeedRejected) {
		t.Fatalf("over-cap seed: err = %v, want ErrSeedRejected", err)
	}
}

// TestSeedQuotaNotConsumedByFailedBuilds: a request that is admitted but
// whose framework resolution fails (unknown task) must return its
// MaxDistinct slot — otherwise malformed untrusted requests exhaust the
// quota without building anything.
func TestSeedQuotaNotConsumedByFailedBuilds(t *testing.T) {
	s := newTestService(t, Options{Seeds: SeedPolicy{MaxDistinct: 1}})
	ctx := context.Background()
	bogus1, bogus2, good := uint64(101), uint64(102), uint64(7)
	if _, err := s.Do(ctx, Request{Task: "audio", Targets: []string{"x"}, Seed: &bogus1}); !errors.Is(err, datahub.ErrUnknownTask) {
		t.Fatalf("bogus task: %v", err)
	}
	if _, err := s.Do(ctx, Request{Task: "audio", Targets: []string{"x"}, Seed: &bogus2}); !errors.Is(err, datahub.ErrUnknownTask) {
		t.Fatalf("second bogus task hit the quota instead of the task check: %v", err)
	}
	// The quota is still free for a legitimate override.
	res, err := s.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, Seed: &good})
	if err != nil {
		t.Fatalf("legitimate seed rejected after failed builds: %v", err)
	}
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	// Once a seed's world was granted, a later failed resolution for the
	// same seed must NOT free its slot — otherwise pairing each new seed
	// with a bogus request would mint unbounded worlds past the quota.
	if _, err := s.Do(ctx, Request{Task: "audio", Targets: []string{"x"}, Seed: &good}); !errors.Is(err, datahub.ErrUnknownTask) {
		t.Fatalf("bogus task on granted seed: %v", err)
	}
	other := uint64(8)
	if _, err := s.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, Seed: &other}); !errors.Is(err, ErrSeedRejected) {
		t.Fatalf("quota freed by failed sibling of a granted seed: %v", err)
	}
}

// TestWarmFailureReturnsSeedQuota: Warm settles admissions like requests
// do, so a failed warm build frees its MaxDistinct slot.
func TestWarmFailureReturnsSeedQuota(t *testing.T) {
	s := newTestService(t, Options{Seeds: SeedPolicy{MaxDistinct: 1}})
	ctx := context.Background()
	if err := s.Warm(ctx, []lifecycle.Key{{Task: "audio", Seed: 55}}); err == nil {
		t.Fatal("warm of unknown task succeeded")
	}
	good := uint64(7)
	if _, err := s.Do(ctx, Request{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, Seed: &good}); err != nil {
		t.Fatalf("failed warm consumed the seed quota: %v", err)
	}
}

// TestServiceWarm: warming pre-builds the configured worlds under the
// admission policy, and a warmed world serves without further builds.
func TestServiceWarm(t *testing.T) {
	s := newTestService(t, Options{Seeds: SeedPolicy{Fixed: true}})
	ctx := context.Background()
	if err := s.Warm(ctx, []lifecycle.Key{{Task: datahub.TaskNLP, Seed: 42}}); err != nil {
		t.Fatal(err)
	}
	if s.Builds() != 1 {
		t.Fatalf("warm ran %d builds, want 1", s.Builds())
	}
	if _, err := selectOne(ctx, s, "tweet_eval"); err != nil {
		t.Fatal(err)
	}
	if s.Builds() != 1 {
		t.Fatalf("request after warm rebuilt (%d builds)", s.Builds())
	}
	// Warm keys are subject to the same admission policy as requests.
	if err := s.Warm(ctx, []lifecycle.Key{{Task: datahub.TaskNLP, Seed: 9}}); !errors.Is(err, ErrSeedRejected) {
		t.Fatalf("warm bypassed the seed policy: %v", err)
	}
}

// TestWarmResultsPerWorldTimings: WarmResults warms concurrently under
// the BuildWorkers budget and reports one timed result per key, in keys
// order, with failures isolated to their own world.
func TestWarmResultsPerWorldTimings(t *testing.T) {
	s := newTestService(t, Options{Base: core.Options{BuildWorkers: 2}})
	ctx := context.Background()
	keys := []lifecycle.Key{
		{Task: datahub.TaskNLP, Seed: 42},
		{Task: datahub.TaskCV, Seed: 42},
	}
	results, err := s.WarmResults(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(keys) {
		t.Fatalf("got %d results for %d keys", len(results), len(keys))
	}
	for i, r := range results {
		if r.Key != keys[i] {
			t.Fatalf("result %d is for %v, want %v — keys order lost", i, r.Key, keys[i])
		}
		if r.Err != nil {
			t.Fatalf("warm %v: %v", r.Key, r.Err)
		}
		if r.Duration <= 0 {
			t.Fatalf("warm %v reported no duration", r.Key)
		}
	}
	if s.Builds() != 2 {
		t.Fatalf("warm ran %d builds, want 2", s.Builds())
	}

	// A bad world fails its own slot without poisoning the good one.
	mixed, err := s.WarmResults(ctx, []lifecycle.Key{
		{Task: "audio", Seed: 42},
		{Task: datahub.TaskNLP, Seed: 42},
	})
	if err == nil {
		t.Fatal("warm of unknown task succeeded")
	}
	if mixed[0].Err == nil {
		t.Fatal("unknown task warmed without error")
	}
	if mixed[1].Err != nil {
		t.Fatalf("healthy world poisoned by failing sibling: %v", mixed[1].Err)
	}
}

func TestParseSeedPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SeedPolicy
	}{
		{"", SeedPolicy{}},
		{"any", SeedPolicy{}},
		{"fixed", SeedPolicy{Fixed: true}},
		{"allow=7", SeedPolicy{Allow: []uint64{7}}},
		{"allow=9,7,42", SeedPolicy{Allow: []uint64{7, 9, 42}}},
		{"max=8", SeedPolicy{MaxDistinct: 8}},
		{"allow=1,2,max=1", SeedPolicy{Allow: []uint64{1, 2}, MaxDistinct: 1}},
	}
	for _, c := range cases {
		got, err := ParseSeedPolicy(c.in)
		if err != nil {
			t.Errorf("ParseSeedPolicy(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSeedPolicy(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// String renders back to something that reparses identically.
		back, err := ParseSeedPolicy(got.String())
		if err != nil || !reflect.DeepEqual(back, got) {
			t.Errorf("round-trip %q -> %q -> %+v (%v)", c.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{"nope", "allow=", "allow=x", "max=0", "max=-1", "max=x", "fixed,max=2"} {
		if _, err := ParseSeedPolicy(bad); err == nil {
			t.Errorf("ParseSeedPolicy(%q) accepted", bad)
		}
	}
}

func TestParseWarmSpec(t *testing.T) {
	keys, err := ParseWarmSpec("nlp,cv:7, nlp:9 ,", 42)
	if err != nil {
		t.Fatal(err)
	}
	want := []lifecycle.Key{
		{Task: "nlp", Seed: 42},
		{Task: "cv", Seed: 7},
		{Task: "nlp", Seed: 9},
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys = %+v, want %+v", keys, want)
	}
	if keys, err := ParseWarmSpec("", 42); err != nil || keys != nil {
		t.Fatalf("empty spec: %v, %v", keys, err)
	}
	for _, bad := range []string{"audio", "nlp:x", "nlp:-1"} {
		if _, err := ParseWarmSpec(bad, 42); err == nil {
			t.Errorf("ParseWarmSpec(%q) accepted", bad)
		}
	}
}
