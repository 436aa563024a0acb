package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"twophase/internal/api"
	"twophase/internal/datahub"
)

// stubBackend is a scriptable api.API served over a real httptest server
// with an instance id, so router tests exercise the full HTTP path
// (client, error codes, instance header) without the selection engine.
// failSlot wraps the scripted error so clearing it is representable.
type failSlot struct{ err error }

type stubBackend struct {
	instance string
	srv      *httptest.Server
	selects  int64 // atomic
	// delayNS, when set, makes Select sleep before answering (canceled by
	// ctx) — a slow replica for hedging tests. Atomic nanoseconds.
	delayNS int64
	// fail, when set, makes Select return the slotted error. A slot is
	// used because atomic.Value cannot store nil: failSlot{} clears a
	// previously-set failure.
	fail atomic.Value // failSlot
	// truncate, when set, drops the last result from every Select
	// response — a version-skewed backend violating the shape contract.
	truncate atomic.Bool
	// epochsPerTarget is charged per served target.
	epochsPerTarget float64
	builds          int
	// stats, when set, is the whole /v1/stats document this backend serves.
	stats *api.Stats
}

func (b *stubBackend) Select(ctx context.Context, req *api.SelectRequest) (*api.SelectResponse, error) {
	atomic.AddInt64(&b.selects, 1)
	if d := time.Duration(atomic.LoadInt64(&b.delayNS)); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s, _ := b.fail.Load().(failSlot); s.err != nil {
		return nil, s.err
	}
	resp := &api.SelectResponse{
		APIVersion:    api.Version,
		Task:          req.Task,
		Strategy:      "two-phase",
		Results:       make([]api.TargetResult, len(req.Targets)),
		OfflineBuilds: b.builds,
	}
	if req.Seed != nil {
		resp.Seed = *req.Seed
	}
	for i, tgt := range req.Targets {
		if tgt == "missing" {
			if len(req.Targets) == 1 {
				return nil, fmt.Errorf("%w: %s", api.ErrUnknownTarget, tgt)
			}
			resp.Results[i] = api.TargetResult{Target: tgt, Error: "unknown target", ErrorCode: api.CodeUnknownTarget}
			resp.Failed++
			continue
		}
		resp.Results[i] = api.TargetResult{Target: tgt, Winner: "winner-for-" + tgt, Epochs: b.epochsPerTarget}
		resp.TotalEpochs += b.epochsPerTarget
		if tgt == "degraded" { // served from the world's fallback
			resp.Results[i].Degraded = true
			resp.Degraded++
		}
	}
	if b.truncate.Load() && len(resp.Results) > 0 {
		resp.Results = resp.Results[:len(resp.Results)-1]
	}
	return resp, nil
}

func (b *stubBackend) Stats(ctx context.Context) (*api.Stats, error) {
	if b.stats != nil {
		doc := *b.stats
		return &doc, nil
	}
	return &api.Stats{
		APIVersion:    api.Version,
		OfflineBuilds: b.builds,
		TotalEpochs:   b.epochsPerTarget * float64(atomic.LoadInt64(&b.selects)),
		Cache:         api.CacheStats{Resident: 1, Hits: 3},
	}, nil
}

// newStubFleet boots n stub backends and a started router over them.
func newStubFleet(t *testing.T, n int, opts RouterOptions) (*Router, []*stubBackend) {
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
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = 20 * time.Millisecond
	}
	r, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	r.Start(ctx)
	t.Cleanup(r.Close)
	waitCtx, waitCancel := context.WithTimeout(ctx, 5*time.Second)
	defer waitCancel()
	if err := r.Membership().WaitProbed(waitCtx); err != nil {
		t.Fatal(err)
	}
	return r, backends
}

// instanceOf maps a backend URL to its stub.
func instanceOf(backends []*stubBackend, url string) *stubBackend {
	for _, b := range backends {
		if b.srv.URL == url {
			return b
		}
	}
	return nil
}

// TestRouterScatterGather: a batch is sliced across the world's replica
// owners, served concurrently, and merged back in request order with the
// serving backend recorded per target.
func TestRouterScatterGather(t *testing.T) {
	r, backends := newStubFleet(t, 3, RouterOptions{Replicas: 2, Seed: 42})
	targets := []string{"t0", "t1", "t2", "t3", "t4"}
	resp, err := r.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(targets) || resp.Failed != 0 {
		t.Fatalf("merged response: %+v", resp)
	}
	owners := r.Owners("nlp", 42)
	if len(owners) != 2 {
		t.Fatalf("owners = %v", owners)
	}
	ownerInstances := map[string]bool{}
	for _, o := range owners {
		ownerInstances[instanceOf(backends, o).instance] = true
	}
	seen := map[string]bool{}
	for i, tr := range resp.Results {
		if tr.Target != targets[i] {
			t.Fatalf("result %d out of order: %+v", i, tr)
		}
		if tr.Winner != "winner-for-"+targets[i] {
			t.Fatalf("result %d wrong winner: %+v", i, tr)
		}
		if !ownerInstances[tr.Backend] {
			t.Fatalf("target %s served by non-owner %q (owners %v)", tr.Target, tr.Backend, owners)
		}
		seen[tr.Backend] = true
	}
	// 5 targets over 2 owners: both replicas must have served slices.
	if len(seen) != 2 {
		t.Fatalf("batch did not scatter across replicas: %v", seen)
	}
	if resp.TotalEpochs != 10 {
		t.Fatalf("total epochs %v, want 10", resp.TotalEpochs)
	}
	// OfflineBuilds dedupes by backend, not by slice.
	if resp.OfflineBuilds != 2 {
		t.Fatalf("offline builds %d, want 2 (one per serving backend)", resp.OfflineBuilds)
	}
	// The non-owner backend must have seen no traffic.
	for _, b := range backends {
		if !ownerInstances[b.instance] && atomic.LoadInt64(&b.selects) != 0 {
			t.Fatalf("non-owner %s served %d selects", b.instance, b.selects)
		}
	}
}

// TestRouterCountsDegradedResults: a backend result served degraded keeps
// its flag through the gather and counts in the merged top-level degraded,
// the way failed and truncated results count.
func TestRouterCountsDegradedResults(t *testing.T) {
	r, _ := newStubFleet(t, 3, RouterOptions{Replicas: 2, Seed: 42})
	targets := []string{"t0", "degraded", "t2", "t3"}
	resp, err := r.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 0 || !resp.Results[1].Degraded {
		t.Fatalf("merged response: %+v", resp)
	}
	if resp.Degraded != 1 {
		t.Fatalf("top-level degraded = %d with one degraded result: %+v", resp.Degraded, resp)
	}
}

// TestRouterRoutingStability: the same key routes to the same primary on
// every request; different seeds can route elsewhere but are stable too.
func TestRouterRoutingStability(t *testing.T) {
	r, _ := newStubFleet(t, 3, RouterOptions{Replicas: 1, Seed: 42})
	byKey := map[uint64]string{}
	for round := 0; round < 3; round++ {
		for seed := uint64(0); seed < 8; seed++ {
			s := seed
			resp, err := r.Select(context.Background(), &api.SelectRequest{
				Task: "nlp", Targets: []string{"t0"}, SelectOptions: api.SelectOptions{Seed: &s},
			})
			if err != nil {
				t.Fatal(err)
			}
			got := resp.Results[0].Backend
			if got == "" {
				t.Fatal("no backend recorded")
			}
			if prev, ok := byKey[seed]; ok && prev != got {
				t.Fatalf("seed %d moved from %s to %s", seed, prev, got)
			}
			byKey[seed] = got
		}
	}
}

// TestRouterFailover: killing a backend redirects its keys to the next
// replica with zero client-visible errors, counts the failover, and the
// failed attempt plus the probe loop mark the backend down (a down event)
// until it recovers.
func TestRouterFailover(t *testing.T) {
	r, backends := newStubFleet(t, 3, RouterOptions{Replicas: 2, Seed: 42})
	owners := r.Owners("nlp", 42)
	primary := instanceOf(backends, owners[0])
	secondary := instanceOf(backends, owners[1])

	// Kill the primary outright — connection refused, not a clean error.
	primary.srv.Close()

	resp, err := r.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: []string{"t0"}})
	if err != nil {
		t.Fatalf("failover not transparent: %v", err)
	}
	if resp.Results[0].Backend != secondary.instance {
		t.Fatalf("served by %q, want secondary %q", resp.Results[0].Backend, secondary.instance)
	}
	st, err := r.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Gateway == nil || st.Gateway.Failovers < 1 {
		t.Fatalf("failover not counted: %+v", st.Gateway)
	}

	// The probe loop converges on the dead backend.
	deadline := time.After(5 * time.Second)
	for stateOf(t, r, owners[0]).state == peerClosed {
		select {
		case <-deadline:
			t.Fatal("dead backend never marked down")
		case <-time.After(10 * time.Millisecond):
		}
	}
	// Once down, requests skip it entirely (its probes keep failing, so
	// its cooldown never lapses): no new failover needed — including
	// batches, whose scatter must fan out over live owners only instead
	// of assigning the corpse a slice per request.
	before := atomic.LoadInt64(&r.failovers)
	if _, err := r.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: []string{"t0"}}); err != nil {
		t.Fatal(err)
	}
	batch, err := r.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: []string{"t0", "t1", "t2"}})
	if err != nil || batch.Failed != 0 {
		t.Fatalf("batch against a degraded owner set: %v, %+v", err, batch)
	}
	for _, tr := range batch.Results {
		if tr.Backend != secondary.instance {
			t.Fatalf("batch slice for %s went to %q, want live owner %q", tr.Target, tr.Backend, secondary.instance)
		}
	}
	if after := atomic.LoadInt64(&r.failovers); after != before {
		t.Fatalf("request to a known-down backend still paid a failover (%d -> %d)", before, after)
	}
	st, _ = r.Stats(context.Background())
	var downEvents int64
	for _, bs := range st.Gateway.BackendStats {
		downEvents += bs.DownEvents
	}
	if downEvents < 1 || st.Gateway.Alive != 2 {
		t.Fatalf("down not reported: %+v", st.Gateway)
	}
}

// TestRouterNonRetryableError: a deterministic rejection passes through
// without failover — retrying it on another replica would just fail again.
func TestRouterNonRetryable(t *testing.T) {
	r, _ := newStubFleet(t, 3, RouterOptions{Replicas: 2, Seed: 42})
	_, err := r.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: []string{"missing"}})
	if !errors.Is(err, api.ErrUnknownTarget) {
		t.Fatalf("err = %v", err)
	}
	if n := atomic.LoadInt64(&r.failovers); n != 0 {
		t.Fatalf("deterministic error caused %d failovers", n)
	}
	// A client-side rejection is not a backend failure: the health
	// counters must stay clean.
	for node, c := range r.counters {
		if f := atomic.LoadInt64(&c.failures); f != 0 {
			t.Fatalf("deterministic error counted as backend failure on %s (%d)", node, f)
		}
	}
	// In a batch, the same failure is a per-target error, not a request
	// failure, and healthy targets still serve.
	resp, err := r.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: []string{"t0", "missing"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 1 || resp.Results[1].ErrorCode != api.CodeUnknownTarget || resp.Results[0].Winner == "" {
		t.Fatalf("batch with one bad target: %+v", resp)
	}
}

// TestRouterMalformedBackendResponse: a backend answering 200 with the
// wrong result count (version skew, broken impl) must degrade to errors,
// never panic the gateway or mis-index the merge.
func TestRouterMalformedBackendResponse(t *testing.T) {
	r, backends := newStubFleet(t, 1, RouterOptions{Replicas: 1, Seed: 42})
	backends[0].truncate.Store(true)
	// Batch: every target of the short slice reports an error in-body.
	resp, err := r.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: []string{"t0", "t1"}})
	if err != nil {
		t.Fatalf("malformed batch response escalated to request failure: %v", err)
	}
	if resp.Failed != 2 {
		t.Fatalf("short backend response not surfaced per target: %+v", resp)
	}
	// Single-target RPC: the shape violation is the request's failure.
	if _, err := r.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: []string{"t0"}}); err == nil {
		t.Fatal("empty single-target response accepted")
	}
}

// TestRouterAllReplicasDown: exhausting the owner set surfaces a typed
// unavailable error that maps to 503 and survives the wire.
func TestRouterAllReplicasDown(t *testing.T) {
	r, backends := newStubFleet(t, 2, RouterOptions{Replicas: 2, Seed: 42})
	for _, b := range backends {
		b.srv.Close()
	}
	_, err := r.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: []string{"t0"}})
	if !errors.Is(err, api.ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if api.HTTPStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("status = %d", api.HTTPStatus(err))
	}
}

// TestRouterValidation: requests the contract rejects locally.
func TestRouterValidation(t *testing.T) {
	r, _ := newStubFleet(t, 1, RouterOptions{Seed: 42})
	for _, req := range []*api.SelectRequest{
		nil,
		{Targets: []string{"t0"}},
		{Task: "nlp"},
		{Task: "nlp", Targets: []string{"t0"}, SelectOptions: api.SelectOptions{DeadlineMS: 1 << 62}},
	} {
		if _, err := r.Select(context.Background(), req); !errors.Is(err, api.ErrBadRequest) {
			t.Fatalf("req %+v: err = %v", req, err)
		}
	}
}

// TestRouterTargetsAndStats: fleet stat aggregation, and a catalog the
// gateway answers from the registry — still with every backend down.
func TestRouterTargetsAndStats(t *testing.T) {
	r, backends := newStubFleet(t, 3, RouterOptions{Replicas: 2, Seed: 42})
	st, err := r.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.OfflineBuilds != len(backends) { // 1 per stub
		t.Fatalf("fleet builds = %d", st.OfflineBuilds)
	}
	if st.Cache.Resident != 3 || st.Cache.Hits != 9 {
		t.Fatalf("fleet cache sums: %+v", st.Cache)
	}
	g := st.Gateway
	if g == nil || g.Backends != 3 || g.Replicas != 2 || g.VNodes != DefaultVNodes || g.Alive != 3 {
		t.Fatalf("gateway stats: %+v", g)
	}
	for _, bs := range g.BackendStats {
		if bs.Instance == "" || !bs.Alive || bs.Stats == nil {
			t.Fatalf("backend stat incomplete: %+v", bs)
		}
	}

	gw := httptest.NewServer(api.NewHandlerWith(r, api.HandlerOptions{}))
	defer gw.Close()
	for _, b := range backends {
		b.srv.Close()
	}
	res, err := http.Get(gw.URL + "/v1/tasks/nlp/targets")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var tg api.TargetsResponse
	if err := json.NewDecoder(res.Body).Decode(&tg); err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("targets with the fleet down: status %d, %v", res.StatusCode, err)
	}
	want, _ := datahub.TargetNames("nlp")
	if tg.APIVersion != api.Version || !reflect.DeepEqual(tg.Targets, want) {
		t.Fatalf("targets: %+v, want %v", tg, want)
	}
	for node, c := range r.counters {
		if n := atomic.LoadInt64(&c.requests); n != 0 {
			t.Fatalf("listing sent %d requests to %s", n, node)
		}
	}
}

// TestRouterOverHTTP: the router mounted behind the v1 handler serves the
// same contract as a single backend — a client cannot tell the
// difference, and typed errors survive the extra hop.
func TestRouterOverHTTP(t *testing.T) {
	r, _ := newStubFleet(t, 2, RouterOptions{Replicas: 2, Seed: 42})
	gw := httptest.NewServer(api.NewHandlerWith(r, api.HandlerOptions{
		Ready:    func() bool { return r.Membership().AliveCount() > 0 },
		Instance: "gw-test",
	}))
	defer gw.Close()
	c := api.NewClient(gw.URL, nil)
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Instance != "gw-test" {
		t.Fatalf("gateway instance = %q", h.Instance)
	}
	resp, err := c.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: []string{"t0", "t1"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 0 || resp.Results[0].Backend == "" {
		t.Fatalf("gateway select over HTTP: %+v", resp)
	}
	if _, err := c.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: []string{"missing"}}); !errors.Is(err, api.ErrUnknownTarget) {
		t.Fatalf("typed error lost through gateway hop: %v", err)
	}
}

// TestRouterAttemptTimeout: the per-attempt timeout is the gateway's, not
// the request's. A backend that accepts a select and never answers costs
// one attempt timeout and a failover per request, and each timeout is a
// charged failure like any other: after openAfter of them the hung backend
// is down — alive: false, breaker "open", down_events 1 — although its
// process still answers healthz, and later requests skip it. The caller's
// own deadline expiring on the same hung backend stays a cancellation,
// never a retryable unavailability, and charges nothing.
func TestRouterAttemptTimeout(t *testing.T) {
	hungFleet := func(attemptTimeout time.Duration) (*Router, []*stubBackend, string) {
		// Unprobed: a healthy probe would close the record under test.
		r, backends := newUnprobedFleet(t, 2, RouterOptions{
			Replicas:       2,
			Seed:           42,
			AttemptTimeout: attemptTimeout,
		})
		t.Cleanup(r.Close)
		hung := r.Owners("nlp", 42)[0]
		atomic.StoreInt64(&instanceOf(backends, hung).delayNS, int64(time.Minute))
		return r, backends, hung
	}
	req := &api.SelectRequest{Task: "nlp", Targets: []string{"t0"}}

	r, backends, hung := hungFleet(50 * time.Millisecond)
	secondary := r.Owners("nlp", 42)[1]
	for i := 0; i < openAfter; i++ {
		resp, err := r.Select(context.Background(), req)
		if err != nil {
			t.Fatalf("select %d behind a hung primary: %v", i, err)
		}
		if got, want := resp.Results[0].Backend, instanceOf(backends, secondary).instance; got != want {
			t.Fatalf("select %d served by %q, want the second owner %q", i, got, want)
		}
	}
	if f := atomic.LoadInt64(&r.failovers); f != openAfter {
		t.Errorf("failovers = %d, want %d", f, openAfter)
	}
	if f := atomic.LoadInt64(&r.counters[hung].failures); f != openAfter {
		t.Errorf("hung backend failures = %d, want %d", f, openAfter)
	}
	if f := atomic.LoadInt64(&r.counters[secondary].failures); f != 0 {
		t.Errorf("serving backend failures = %d, want 0", f)
	}
	st, err := r.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range st.Gateway.BackendStats {
		want := api.BackendStats{Alive: true, Breaker: "closed"}
		if bs.URL == hung {
			want = api.BackendStats{Alive: false, Breaker: "open", DownEvents: 1}
		}
		if bs.Alive != want.Alive || bs.Breaker != want.Breaker || bs.DownEvents != want.DownEvents {
			t.Errorf("%s: alive %v breaker %q down_events %d, want %v %q %d",
				bs.URL, bs.Alive, bs.Breaker, bs.DownEvents, want.Alive, want.Breaker, want.DownEvents)
		}
	}
	if _, err := r.Select(context.Background(), req); err != nil {
		t.Fatalf("select with the hung backend down: %v", err)
	}
	if s := atomic.LoadInt64(&r.breakerSkips); s != 1 {
		t.Errorf("breaker_skips = %d, want 1 (the down backend skipped, not timed out again)", s)
	}

	// The caller's deadline is shorter than the attempt timeout: the
	// request is over, the backend is not to blame.
	r, _, hung = hungFleet(time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = r.Select(ctx, req)
	if !errors.Is(err, api.ErrCanceled) || api.Retryable(err) {
		t.Fatalf("expired caller deadline = %v, want a non-retryable cancellation", err)
	}
	if f := atomic.LoadInt64(&r.counters[hung].failures); f != 0 {
		t.Errorf("caller's expiry charged the backend %d failures", f)
	}
	if ps := stateOf(t, r, hung); ps.fails != 0 {
		t.Errorf("caller's expiry reached the health record: %+v", ps.peer)
	}
	if f := atomic.LoadInt64(&r.failovers); f != 0 {
		t.Errorf("caller's expiry counted %d failovers", f)
	}
}
