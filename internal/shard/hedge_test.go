package shard

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"twophase/internal/api"
)

// warmHedge fills the router's latency window with the samples hedging
// needs before it arms.
func warmHedge(t *testing.T, r *Router, req *api.SelectRequest) {
	t.Helper()
	for i := 0; i < hedgeMinSamples; i++ {
		if _, err := r.Select(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHedgeFiresOnSlowPrimary: a sub-request stuck on a slow primary past
// the fleet's recent latency percentile is raced against the secondary
// replica, whose answer is used — one report, no failover charged, and
// the win shows up in the hedge counters.
func TestHedgeFiresOnSlowPrimary(t *testing.T) {
	r, backends := newStubFleet(t, 2, RouterOptions{
		Replicas: 2, Seed: 42, HedgePercentile: 90,
	})
	if _, armed := r.hedgeDelay(); armed {
		t.Fatal("hedging armed before the latency window warmed")
	}
	ctx := context.Background()
	req := &api.SelectRequest{Task: "nlp", Targets: []string{"t0"}}
	warmHedge(t, r, req)
	if _, armed := r.hedgeDelay(); !armed {
		t.Fatalf("hedging not armed after %d samples", r.latency.Len())
	}

	owners := r.Owners("nlp", 42)
	primary, secondary := instanceOf(backends, owners[0]), instanceOf(backends, owners[1])
	atomic.StoreInt64(&primary.delayNS, int64(500*time.Millisecond))

	resp, err := r.Select(ctx, req)
	if err != nil {
		t.Fatalf("hedged request failed: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Winner != "winner-for-t0" {
		t.Fatalf("hedged response malformed: %+v", resp)
	}
	if resp.Results[0].Backend != secondary.instance {
		t.Fatalf("served by %q, want hedged secondary %q", resp.Results[0].Backend, secondary.instance)
	}
	if h, w := atomic.LoadInt64(&r.hedges), atomic.LoadInt64(&r.hedgeWins); h != 1 || w != 1 {
		t.Fatalf("hedges %d / wins %d, want 1 / 1", h, w)
	}
	// A hedge is not a failover, and the canceled loser is not a backend
	// failure — the health counters keep their meaning.
	if f := atomic.LoadInt64(&r.failovers); f != 0 {
		t.Fatalf("hedge counted as %d failovers", f)
	}
	for node, c := range r.counters {
		if f := atomic.LoadInt64(&c.failures); f != 0 {
			t.Fatalf("hedge loser charged as failure on %s (%d)", node, f)
		}
	}
	st, err := r.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Gateway.Hedges != 1 || st.Gateway.HedgeWins != 1 {
		t.Fatalf("hedge counters missing from stats: %+v", st.Gateway)
	}
}

// TestHedgeBothLegsHealthyOneReport: the hedge fires against a healthy
// (merely slow) primary; when the primary then answers first, the caller
// gets exactly that one report — the launched secondary leg is discarded,
// never merged, and never counted as a win or a failover.
func TestHedgeBothLegsHealthyOneReport(t *testing.T) {
	r, backends := newStubFleet(t, 2, RouterOptions{
		Replicas: 2, Seed: 42, HedgePercentile: 50,
	})
	ctx := context.Background()
	req := &api.SelectRequest{Task: "nlp", Targets: []string{"t0"}}
	warmHedge(t, r, req)

	owners := r.Owners("nlp", 42)
	primary, secondary := instanceOf(backends, owners[0]), instanceOf(backends, owners[1])
	// Slow enough to trip the hedge, fast enough to beat the secondary:
	// both legs are in flight and would both succeed.
	atomic.StoreInt64(&primary.delayNS, int64(150*time.Millisecond))
	atomic.StoreInt64(&secondary.delayNS, int64(2*time.Second))

	resp, err := r.Select(ctx, req)
	if err != nil {
		t.Fatalf("hedged request failed: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Winner != "winner-for-t0" {
		t.Fatalf("want exactly one report: %+v", resp)
	}
	if resp.Results[0].Backend != primary.instance {
		t.Fatalf("served by %q, want primary %q", resp.Results[0].Backend, primary.instance)
	}
	if got := atomic.LoadInt64(&secondary.selects); got != 1 {
		t.Fatalf("secondary saw %d selects, want the 1 hedge leg", got)
	}
	if h, w := atomic.LoadInt64(&r.hedges), atomic.LoadInt64(&r.hedgeWins); h != 1 || w != 0 {
		t.Fatalf("hedges %d / wins %d, want 1 / 0", h, w)
	}
	if f := atomic.LoadInt64(&r.failovers); f != 0 {
		t.Fatalf("healthy hedge counted as %d failovers", f)
	}
}

// TestHedgeFallsBackOnPrimaryFailure: when the hedge is armed and the
// primary dies mid-race, the secondary's answer still serves the request.
func TestHedgeFallsBackOnPrimaryFailure(t *testing.T) {
	r, backends := newStubFleet(t, 2, RouterOptions{
		Replicas: 2, Seed: 42, HedgePercentile: 50,
	})
	ctx := context.Background()
	req := &api.SelectRequest{Task: "nlp", Targets: []string{"t0"}}
	warmHedge(t, r, req)
	owners := r.Owners("nlp", 42)
	primary, secondary := instanceOf(backends, owners[0]), instanceOf(backends, owners[1])
	atomic.StoreInt64(&primary.delayNS, int64(100*time.Millisecond))
	primary.fail.Store(failSlot{api.ErrUnavailable})

	resp, err := r.Select(ctx, req)
	if err != nil {
		t.Fatalf("hedge did not rescue the failed primary: %v", err)
	}
	if resp.Results[0].Backend != secondary.instance {
		t.Fatalf("served by %q, want secondary %q", resp.Results[0].Backend, secondary.instance)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("want exactly one report: %+v", resp)
	}
}
