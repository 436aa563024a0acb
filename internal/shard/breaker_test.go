package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"twophase/internal/api"
	"twophase/internal/artifact"
	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/faultinject"
	"twophase/internal/service"
)

// newUnprobedFleet boots stub backends and a router WITHOUT starting the
// probe loop, so health records move only on request traffic (and on
// probe rounds a test runs by hand) — the deterministic setting the
// lifecycle assertions need. Cooldowns are stretched to an hour: an open
// backend stays open until a test re-admits it.
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
	r.health.cooldown = time.Hour
	return r, backends
}

// stateOf reads one backend's health record.
func stateOf(t *testing.T, r *Router, node string) peerStatus {
	t.Helper()
	for _, ps := range r.health.snapshot() {
		if ps.node == node {
			return ps
		}
	}
	t.Fatalf("no health record for %s", node)
	return peerStatus{}
}

// TestRouterBreakerLifecycle drives both backends' health records through
// the whole machine via real forwarded traffic: openAfter consecutive
// failures open one, open means skipped (the backend stops seeing
// requests while failover keeps serving), a fully-open owner set refuses
// with a typed unavailability, and the probe loop closes recovered
// backends. Each transition and each failover is one record in the log,
// in order.
func TestRouterBreakerLifecycle(t *testing.T) {
	events := captureShardEvents(t)
	r, backends := newUnprobedFleet(t, 2, RouterOptions{
		Replicas: 2,
		Seed:     42,
		// The probe loop only runs in phase 4, after Start; until then
		// health moves purely on request traffic.
		ProbeInterval: 20 * time.Millisecond,
	})
	defer r.Close()
	ctx := context.Background()
	owners := r.Owners("nlp", 42)
	primary, secondary := instanceOf(backends, owners[0]), instanceOf(backends, owners[1])
	req := func() *api.SelectRequest {
		return &api.SelectRequest{Task: "nlp", Targets: []string{"t0"}}
	}

	// Phase 1: the primary fails typed-retryably; each request fails over
	// to the secondary, and openAfter consecutive failures open the
	// primary — it is no longer alive.
	primary.fail.Store(failSlot{fmt.Errorf("%w: injected", api.ErrUnavailable)})
	for i := 0; i < openAfter; i++ {
		if _, err := r.Select(ctx, req()); err != nil {
			t.Fatalf("request %d: failover did not save the request: %v", i, err)
		}
	}
	if ps := stateOf(t, r, owners[0]); ps.state != peerOpen || ps.downEvents != 1 {
		t.Fatalf("primary after %d failures: %+v, want open with one down event", openAfter, ps.peer)
	}

	// Phase 2: open means skipped — the primary sees no further traffic,
	// the skip counter moves, and requests still succeed.
	before := atomic.LoadInt64(&primary.selects)
	for i := 0; i < 3; i++ {
		if _, err := r.Select(ctx, req()); err != nil {
			t.Fatalf("request with an open primary failed: %v", err)
		}
	}
	if got := atomic.LoadInt64(&primary.selects); got != before {
		t.Errorf("open backend served %d more requests, want 0", got-before)
	}
	st, err := r.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Gateway.BreakerSkips != 3 || st.Gateway.Alive != 1 {
		t.Errorf("stats: breaker_skips %d, alive %d; want 3 and 1", st.Gateway.BreakerSkips, st.Gateway.Alive)
	}
	states := map[string]string{}
	for _, bs := range st.Gateway.BackendStats {
		states[bs.URL] = bs.Breaker
	}
	if states[owners[0]] != "open" || states[owners[1]] != "closed" {
		t.Errorf("per-backend breaker states = %v, want primary open / secondary closed", states)
	}

	// Phase 3: the secondary fails too; once both are open the request is
	// refused with a typed, retryable unavailability — never an untyped
	// error.
	secondary.fail.Store(failSlot{fmt.Errorf("%w: injected", api.ErrUnavailable)})
	for i := 0; i < openAfter; i++ {
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

	// Phase 4: both backends recover; the probe loop's successes close them
	// directly — reconvergence without waiting out the cooldown.
	primary.fail.Store(failSlot{})
	secondary.fail.Store(failSlot{})
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.Start(pctx)
	deadline := time.Now().Add(5 * time.Second)
	for r.Membership().AliveCount() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("backends never reconverged: %+v", r.health.snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := r.Select(ctx, req()); err != nil {
		t.Fatalf("post-recovery request failed: %v", err)
	}

	// The log tells the same story, one record per transition and per
	// failover: phase 1's two failovers around the primary's open, the
	// secondary's open, then the two probe closes in either order.
	got := events()
	failover := "failover " + owners[0] + " -> " + owners[1] + " attempt=2 code=unavailable"
	want := []string{
		failover,
		"open " + owners[0] + " fails=2 cause=attempt",
		failover,
		"open " + owners[1] + " fails=2 cause=attempt",
		"closed " + owners[0] + " by=probe",
		"closed " + owners[1] + " by=probe",
	}
	if len(got) == len(want) {
		slices.Sort(got[4:])
		slices.Sort(want[4:])
	}
	if !slices.Equal(got, want) {
		t.Errorf("transition records:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestStatsAliveIsBreakerClosed: across a scripted failure / cooldown /
// half-open / recovery sequence, every backend's /v1/stats entry has
// alive exactly when breaker is "closed" — one record answers both — and
// the states are the script's.
func TestStatsAliveIsBreakerClosed(t *testing.T) {
	r, backends := newUnprobedFleet(t, 2, RouterOptions{Replicas: 2, Seed: 42})
	clk := freezeClock(r.health)
	r.health.cooldown = peerCooldown
	gw := httptest.NewServer(api.NewHandlerWith(r, api.HandlerOptions{}))
	defer gw.Close()
	c := api.NewClient(gw.URL, nil)
	ctx := context.Background()
	owners := r.Owners("nlp", 42)
	primary := instanceOf(backends, owners[0])
	sel := func() {
		if _, err := r.Select(ctx, &api.SelectRequest{Task: "nlp", Targets: []string{"t0"}}); err != nil {
			t.Fatalf("select: %v", err)
		}
	}
	check := func(phase, wantPrimary string, wantDown int64) {
		t.Helper()
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		alive := 0
		for _, bs := range st.Gateway.BackendStats {
			if bs.Alive != (bs.Breaker == "closed") {
				t.Errorf("%s: %s alive=%v with breaker %q", phase, bs.URL, bs.Alive, bs.Breaker)
			}
			if bs.Alive {
				alive++
			}
			want, down := "closed", int64(0)
			if bs.URL == owners[0] {
				want, down = wantPrimary, wantDown
			}
			if bs.Breaker != want || bs.DownEvents != down {
				t.Errorf("%s: %s breaker %q down_events %d, want %q and %d", phase, bs.URL, bs.Breaker, bs.DownEvents, want, down)
			}
		}
		if st.Gateway.Alive != alive {
			t.Errorf("%s: gateway alive %d, but %d backends alive", phase, st.Gateway.Alive, alive)
		}
	}

	check("fresh", "closed", 0)
	primary.fail.Store(failSlot{fmt.Errorf("%w: injected", api.ErrInternal)})
	sel()
	check("one failure", "closed", 0)
	sel()
	check("opened", "open", 1)
	clk.advance(peerCooldown)
	primary.fail.Store(failSlot{})
	sel() // walk's gate turns the primary half-open (the secondary serves)
	check("cooled down", "half-open", 1)
	r.health.probeAll(ctx)
	check("probed", "closed", 1)
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
