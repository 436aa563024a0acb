package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"twophase/internal/api"
)

// verdict is a classifier's ruling on one failed attempt.
type verdict int

const (
	// stop: the failure is the request's answer (a deterministic
	// rejection fails identically on every peer); return it as is.
	stop verdict = iota
	// next: a healthy peer that cannot help (it does not hold the
	// artifact); try the next candidate and charge nothing.
	next
	// nextAndCharge: a peer failure; charge it and try the next candidate.
	nextAndCharge
)

// peerCounters is one peer's attempt ledger (atomics).
type peerCounters struct {
	requests int64
	failures int64
}

// attempter is the fleet tier's one "try again elsewhere" policy, shared
// by the Router (select, targets) and the artifact fetcher. walk is its
// only entry point: candidates in order, health gate, per-attempt
// timeout, and on failure the owner's classifier decides stop / next /
// next-and-charge. What a failed attempt costs — the peer's failure
// counter and its health record, and nothing at all once the caller's
// context died — is settled in try and nowhere else.
type attempter struct {
	// health is the peers' one health view: walk's gate reads it and
	// every settled attempt moves it, as the router's probes do.
	health *Membership
	// timeout bounds each attempt, distinct from the caller's deadline: a
	// hung peer costs one timeout and a move to the next candidate, not
	// the whole request. 0 leaves attempts bounded by the caller's context.
	timeout  time.Duration
	classify func(err error) verdict
	// exhausted shapes the error of a walk that ran out of candidates:
	// tried were called and failed (last is the final failure), open were
	// skipped by their open health records.
	exhausted func(tried, open int, last error) error
	counters  map[string]*peerCounters // one per peer, fixed at construction

	failovers    int64 // atomic: a candidate failed and the next one was tried
	breakerSkips int64 // atomic: candidates the health gate skipped
}

func newPeerCounters(peers []string) map[string]*peerCounters {
	m := make(map[string]*peerCounters, len(peers))
	for _, p := range peers {
		m[p] = &peerCounters{}
	}
	return m
}

// walk drives one call down a candidate list and returns the first
// success with the node that served it, the terminal error of a stopped
// walk, or a.exhausted's error. Candidates whose peer is open (or lost
// the half-open coin) are skipped up front; if that leaves none, the
// refusal is transient by construction (cooldown and probes re-admit
// peers).
func walk[T any](ctx context.Context, a *attempter, candidates []string,
	call func(ctx context.Context, node string) (T, error)) (val T, node string, err error) {
	admitted := make([]string, 0, len(candidates))
	for _, c := range candidates {
		if a.health.allow(c) {
			admitted = append(admitted, c)
		} else {
			atomic.AddInt64(&a.breakerSkips, 1)
		}
	}
	var last error
	for i, peer := range admitted {
		if i > 0 {
			atomic.AddInt64(&a.failovers, 1)
		}
		got, v, failure := try(ctx, a, peer, call)
		if failure == nil {
			return got, peer, nil
		}
		if v == stop || ctx.Err() != nil {
			return val, "", failure
		}
		last = failure
	}
	return val, "", a.exhausted(len(admitted), len(candidates)-len(admitted), last)
}

// try makes one bounded call to one peer and settles its account; v is
// the ruling on a non-nil err. An attempt whose own deadline expired while
// the caller's context is alive is a retryable unavailability whatever the
// call returned — including a late "success" — so a hung peer is charged
// to its health record and the walk moves on, while the caller's own expiry
// stays a cancellation. A failure observed after ctx died (the caller gave
// up) says nothing about the peer and is never charged.
func try[T any](ctx context.Context, a *attempter, node string,
	call func(ctx context.Context, node string) (T, error)) (val T, v verdict, err error) {
	atomic.AddInt64(&a.counters[node].requests, 1)
	actx, cancel := ctx, context.CancelFunc(func() {})
	if a.timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, a.timeout)
	}
	val, err = call(actx, node)
	expired := actx.Err() != nil && ctx.Err() == nil
	cancel()
	if expired {
		err = &api.Error{Code: api.CodeUnavailable,
			Message: fmt.Sprintf("shard: attempt on %s timed out after %v", node, a.timeout)}
	}
	if err == nil {
		a.health.success(node, "", byAttempt)
		return val, stop, nil
	}
	if ctx.Err() != nil {
		return val, stop, err
	}
	if v = a.classify(err); v == nextAndCharge {
		atomic.AddInt64(&a.counters[node].failures, 1)
		a.health.failure(node, byAttempt)
	}
	return val, v, err
}
