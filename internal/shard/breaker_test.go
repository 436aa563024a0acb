package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"twophase/internal/api"
	"twophase/internal/artifact"
	"twophase/internal/breaker"
	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/faultinject"
	"twophase/internal/service"
)

// newUnprobedFleet boots stub backends and a router WITHOUT starting the
// probe loop, so breaker state moves only on request traffic — the
// deterministic setting the breaker lifecycle assertions need.
func newUnprobedFleet(t *testing.T, n int, opts RouterOptions) (*Router, []*stubBackend) {
	t.Helper()
	backends := make([]*stubBackend, n)
	urls := make([]string, n)
	for i := range backends {
		b := &stubBackend{instance: fmt.Sprintf("inst-%d", i), epochsPerTarget: 2, builds: 1}
		b.srv = httptest.NewServer(api.NewHandlerWith(b, api.HandlerOptions{Instance: b.instance}))
		t.Cleanup(b.srv.Close)
		backends[i] = b
		urls[i] = b.srv.URL
	}
	opts.Backends = urls
	r, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r, backends
}

// TestRouterBreakerLifecycle drives one backend's breaker through its
// whole machine via real forwarded traffic: consecutive failures open
// it, open means skipped (the backend stops seeing requests while
// failover keeps serving), a fully-open owner set refuses with a typed
// unavailability, and the health probe loop re-admits recovered backends
// until every breaker is closed again.
func TestRouterBreakerLifecycle(t *testing.T) {
	const threshold = 3
	r, backends := newUnprobedFleet(t, 2, RouterOptions{
		Replicas: 2,
		Seed:     42,
		// The probe loop only runs in phase 4, after Start; until then
		// breaker state moves purely on request traffic.
		ProbeInterval: 20 * time.Millisecond,
		Breaker:       breaker.Options{FailureThreshold: threshold, Cooldown: time.Hour, Seed: 7},
	})
	defer r.Close()
	ctx := context.Background()
	owners := r.Owners("nlp", 42)
	primary, secondary := instanceOf(backends, owners[0]), instanceOf(backends, owners[1])
	req := func() *api.SelectRequest {
		return &api.SelectRequest{Task: "nlp", Targets: []string{"t0"}}
	}

	// Phase 1: the primary fails typed-retryably; each request fails over
	// to the secondary, and threshold consecutive failures open the
	// primary's breaker.
	primary.fail.Store(failSlot{fmt.Errorf("%w: injected", api.ErrUnavailable)})
	for i := 0; i < threshold; i++ {
		if _, err := r.Select(ctx, req()); err != nil {
			t.Fatalf("request %d: failover did not save the request: %v", i, err)
		}
	}
	if st := r.Breakers().For(owners[0]).State(); st != breaker.Open {
		t.Fatalf("primary breaker after %d failures: %v, want open", threshold, st)
	}

	// Phase 2: open means skipped — the primary sees no further traffic,
	// the skip counter moves, and requests still succeed.
	before := atomic.LoadInt64(&primary.selects)
	for i := 0; i < 3; i++ {
		if _, err := r.Select(ctx, req()); err != nil {
			t.Fatalf("request with open primary breaker failed: %v", err)
		}
	}
	if got := atomic.LoadInt64(&primary.selects); got != before {
		t.Errorf("open-breaker backend served %d more requests, want 0", got-before)
	}
	if atomic.LoadInt64(&r.breakerSkips) == 0 {
		t.Error("breakerSkips did not move while skipping an open breaker")
	}
	st, err := r.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Gateway.BreakerSkips == 0 {
		t.Error("stats do not report breaker skips")
	}
	states := map[string]string{}
	for _, bs := range st.Gateway.BackendStats {
		states[bs.URL] = bs.Breaker
	}
	if states[owners[0]] != "open" || states[owners[1]] != "closed" {
		t.Errorf("per-backend breaker states = %v, want primary open / secondary closed", states)
	}

	// Phase 3: the secondary fails too; once both breakers are open the
	// request is refused with a typed, retryable unavailability — never an
	// untyped error.
	secondary.fail.Store(failSlot{fmt.Errorf("%w: injected", api.ErrUnavailable)})
	for i := 0; i < threshold; i++ {
		if _, err := r.Select(ctx, req()); err == nil {
			t.Fatalf("request %d with both backends failing succeeded", i)
		}
	}
	_, err = r.Select(ctx, req())
	if !errors.Is(err, api.ErrUnavailable) {
		t.Fatalf("all-open refusal = %v, want typed ErrUnavailable", err)
	}
	if !api.Retryable(err) {
		t.Fatalf("all-open refusal is not retryable: %v", err)
	}

	// Phase 4: both backends recover; the probe loop's successes close the
	// breakers directly — reconvergence without waiting out the cooldown.
	primary.fail.Store(failSlot{})
	secondary.fail.Store(failSlot{})
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.Start(pctx)
	deadline := time.Now().Add(5 * time.Second)
	for !r.Breakers().AllClosed() {
		if time.Now().After(deadline) {
			t.Fatalf("breakers never reconverged: %v", r.Breakers().Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := r.Select(ctx, req()); err != nil {
		t.Fatalf("post-recovery request failed: %v", err)
	}
}

// TestFetcherFaultSites drives the artifact fetcher through the
// fetch.request and fetch.body injection sites against a real peer: an
// injected request error fails that attempt, an injected body corruption
// must die at the checksum gate — the fetcher never returns bytes that
// fail verification — and a body stall that outlives the attempt timeout
// is a failed attempt, not a late success.
func TestFetcherFaultSites(t *testing.T) {
	svc, err := service.New(service.Options{
		Base:     core.Options{Seed: 42, Sizes: datahub.Sizes{Train: 60, Val: 40, Test: 48}},
		StoreDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Do(context.Background(), service.Request{Task: "nlp", Targets: []string{"tweet_eval"}}); err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(api.NewHandlerWith(api.NewDispatcher(svc, 42), api.HandlerOptions{Artifacts: svc.Store()}))
	defer peer.Close()
	self := "http://self.invalid"
	ring, err := NewRing([]string{peer.URL, self}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A capped request fault fails the first attempt; with the single
	// real peer exhausted, the fetch fails typed — and the next fetch
	// (schedule drained) succeeds.
	if err := faultinject.Enable("seed=1;fetch.request:err#1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	fetch := NewArtifactFetcher(ring, self, 2, nil)
	if _, err := fetch(ctx, "matrices", "nlp-seed42"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("fetch under request fault = %v, want ErrInjected", err)
	}
	data, err := fetch(ctx, "matrices", "nlp-seed42")
	if err != nil {
		t.Fatalf("fetch after schedule drained: %v", err)
	}
	if _, err := artifact.Verify(data); err != nil {
		t.Fatalf("fetched document fails verification: %v", err)
	}

	// A corrupted body must never escape: the checksum gate rejects it,
	// the peer's breaker takes the failure, and no bytes are returned.
	if err := faultinject.Enable("seed=1;fetch.body:corrupt#1"); err != nil {
		t.Fatal(err)
	}
	fetch = NewArtifactFetcher(ring, self, 2, nil)
	if data, err := fetch(ctx, "matrices", "nlp-seed42"); err == nil {
		t.Fatalf("corrupted fetch returned %d bytes with nil error", len(data))
	}
	if data, err := fetch(ctx, "matrices", "nlp-seed42"); err != nil {
		t.Fatalf("fetch after corrupt fault drained: %v", err)
	} else if _, err := artifact.Verify(data); err != nil {
		t.Fatalf("post-drain document fails verification: %v", err)
	}

	// A body that stalls past the attempt deadline: the attempt is over
	// when its timeout fires, whatever arrives afterwards. The fetch fails
	// as a retryable unavailability after one timeout, not after the hang.
	if err := faultinject.Enable("seed=1;fetch.body:hang:30s#1"); err != nil {
		t.Fatal(err)
	}
	fetch = newArtifactFetcher(ring, self, 2, nil, 50*time.Millisecond)
	start := time.Now()
	if data, err := fetch(ctx, "matrices", "nlp-seed42"); !errors.Is(err, api.ErrUnavailable) {
		t.Fatalf("fetch stalled past its attempt timeout = (%d bytes, %v), want retryable ErrUnavailable", len(data), err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("stalled fetch took %v: the attempt timeout did not bound it", took)
	}
	if _, err := fetch(ctx, "matrices", "nlp-seed42"); err != nil {
		t.Fatalf("fetch after hang fault drained: %v", err)
	}
}
