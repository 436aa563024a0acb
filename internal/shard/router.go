package shard

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"twophase/internal/api"
	"twophase/internal/core"
	"twophase/internal/fanout"
)

// DefaultReplicas is the owner-set size per (task, seed) key when
// RouterOptions leaves it unset: a primary plus one failover replica.
const DefaultReplicas = 2

// statsTimeout bounds how long a gateway stats scrape waits on each
// backend's /v1/stats. Stats are cheap counters server-side; a backend
// that cannot answer within this is wedged and reported without a
// stats document rather than stalling the scrape.
const statsTimeout = 5 * time.Second

// RouterOptions configures a Router.
type RouterOptions struct {
	// Backends are the backend base URLs (e.g. "http://10.0.0.3:8080").
	// Required, and fixed for the router's lifetime.
	Backends []string
	// Replicas is the owner-set size per key (0 = DefaultReplicas,
	// clamped to the backend count). Failover never leaves the owner set:
	// a key's worlds are only ever built on its replicas.
	Replicas int
	// Seed is the routing seed for requests that do not override one. It
	// must match the backends' -seed so the gateway routes a defaulted
	// request to the world the backend will actually serve. It also seeds
	// each backend's half-open coin, so a seeded chaos run re-admits
	// backends in the same order every time.
	Seed uint64
	// ProbeInterval is the health-check period (0 = DefaultProbeInterval).
	ProbeInterval time.Duration
	// HTTPClient is shared by all backend clients (nil =
	// http.DefaultClient). It must not impose a global timeout shorter
	// than a cold offline build.
	HTTPClient *http.Client
	// AttemptTimeout bounds each individual forwarded select attempt,
	// distinct from the request's own deadline: a hung backend costs one
	// attempt timeout and a failover, not the whole deadline_ms. 0 leaves
	// attempts bounded only by the caller's context.
	AttemptTimeout time.Duration
}

// Router routes v1 selection traffic across a fixed backend fleet: each
// (task, seed) world hashes to a stable replica owner set on a
// consistent-hash ring, batch requests scatter across the world's live
// owners and gather back in request order, and a sub-request that hits a
// dead or failing backend fails over to the next replica. Router
// implements api.API, so the gateway serves the exact v1 contract of a
// single backend — clients cannot tell the difference (except for the
// per-target "backend" field reporting who served them). The target
// catalog is not forwarded at all: every v1 handler answers it from the
// registry.
type Router struct {
	// attempter is the failover/health/timeout policy and its routing
	// counters; Select goes through walk.
	attempter
	ring    *Ring
	clients map[string]*api.Client
	opts    RouterOptions
}

// NewRouter builds a router over a fixed backend set. Start begins health
// probing; until then every backend is optimistically alive.
func NewRouter(opts RouterOptions) (*Router, error) {
	if opts.Replicas <= 0 {
		opts.Replicas = DefaultReplicas
	}
	if opts.Replicas > len(opts.Backends) {
		opts.Replicas = len(opts.Backends)
	}
	// Every backend builds its ring with DefaultVNodes too: the gateway's
	// routing and the backends' warm / fetch ownership must agree.
	ring, err := NewRing(opts.Backends, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	r := &Router{
		attempter: attempter{
			timeout:   opts.AttemptTimeout,
			classify:  classifyRouted,
			exhausted: routedExhausted,
			counters:  newPeerCounters(opts.Backends),
		},
		ring:    ring,
		clients: make(map[string]*api.Client, len(opts.Backends)),
		opts:    opts,
	}
	for _, b := range opts.Backends {
		r.clients[b] = api.NewClient(b, opts.HTTPClient)
	}
	// Missed probes open a backend that died between requests without
	// costing live traffic the discovery; a passed one closes it directly
	// — the probe loop is the re-admission path after a schedule drains.
	r.health = newMembership(opts.Backends, func(ctx context.Context, node string) (string, error) {
		h, err := r.clients[node].Healthz(ctx)
		if err != nil {
			return "", err
		}
		return h.Instance, nil
	}, opts.ProbeInterval, opts.Seed)
	return r, nil
}

// Start launches health probing until ctx is canceled or Close is called.
func (r *Router) Start(ctx context.Context) { r.health.Start(ctx) }

// Close stops health probing.
func (r *Router) Close() { r.health.Close() }

// Membership exposes the health view (for readiness gates and tests).
func (r *Router) Membership() *Membership { return r.health }

// Owners returns the replica owner set for one world, in ring priority
// order — the routing decision as a pure function, for tests and ops.
func (r *Router) Owners(task string, seed uint64) []string {
	return r.ring.Owners(RouteKey(task, seed), r.opts.Replicas)
}

// routeSeed resolves the seed a request routes by.
func (r *Router) routeSeed(req *api.SelectRequest) uint64 {
	if req.Seed != nil {
		return *req.Seed
	}
	return r.opts.Seed
}

// classifyRouted is the router's ruling on a failed attempt: a failure
// that may succeed on another replica is the backend's fault and moves
// on; everything else is the request's answer. The contract's own
// predicate decides for typed errors (unavailable, rate-limited,
// overloaded are transient; contract rejections and cancellations fail
// identically everywhere); an internal failure — a connection error, a
// 5xx — is node-local and worth a failover.
func classifyRouted(err error) verdict {
	if api.Retryable(err) || api.Code(err) == api.CodeInternal {
		return nextAndCharge
	}
	return stop
}

// routedExhausted reshapes an owner set that could not serve into the
// contract's retryable unavailability.
func routedExhausted(tried, open int, last error) error {
	if tried == 0 {
		return fmt.Errorf("%w: all %d candidate backends have open circuit breakers", api.ErrUnavailable, open)
	}
	return fmt.Errorf("%w: all %d candidate backends failed, last: %v", api.ErrUnavailable, tried, last)
}

// served is one backend's answer to a select sub-request.
type served struct {
	resp     *api.SelectResponse
	instance string // the backend's self-reported instance id (may be empty)
}

// subResult is one scattered sub-request's outcome.
type subResult struct {
	indices []int // original target indices, in sub-request order
	served
	node string // serving backend URL (unique by ring construction)
}

// Select implements api.API: it scatters the request's targets across the
// world's live replica owners, forwards each slice concurrently through
// the backend clients (with failover), and gathers the per-target results
// back in request order. A single-target request keeps its RPC semantics:
// its failure is the request's failure with the backend's status.
func (r *Router) Select(ctx context.Context, req *api.SelectRequest) (*api.SelectResponse, error) {
	if req == nil {
		return nil, fmt.Errorf("%w: nil request", api.ErrBadRequest)
	}
	// The contract's one validation gate, same as the dispatcher and the
	// HTTP handler: a malformed request dies here, not on a backend.
	if err := req.Validate(); err != nil {
		return nil, err
	}
	seed := r.routeSeed(req)
	owners, alive := r.health.liveFirst(r.Owners(req.Task, seed))

	// Scatter: slice the batch across the world's live owners. Every
	// owner holds (or will build) the same world, so spreading a batch
	// over the replica set parallelizes the online phase across machines
	// without costing any extra offline builds. Target order inside each
	// slice, and slice-to-owner assignment, are deterministic.
	width := alive
	if width > len(req.Targets) {
		width = len(req.Targets)
	}
	groups := make([]subResult, width)
	for i := range req.Targets {
		g := &groups[i%width]
		g.indices = append(g.indices, i)
	}

	start := time.Now()
	errs := fanout.Errors(ctx, len(groups), len(groups), func(gi int) error {
		g := &groups[gi]
		sub := *req
		sub.Targets = make([]string, len(g.indices))
		for j, idx := range g.indices {
			sub.Targets[j] = req.Targets[idx]
		}
		// Failover order: this slice's assigned owner first, then the
		// rest of the owner set in priority order.
		candidates := append([]string{owners[gi]}, deleteAt(owners, gi)...)
		var err error
		g.served, g.node, err = walk(ctx, &r.attempter, candidates,
			func(ctx context.Context, node string) (s served, err error) {
				s.resp, err = r.clients[node].Select(api.WithInstanceCapture(ctx, &s.instance), &sub)
				return s, err
			})
		return err
	})

	// Gather, preserving request order and per-target error codes.
	out := &api.SelectResponse{
		APIVersion: api.Version,
		Task:       req.Task,
		Seed:       seed,
		Results:    make([]api.TargetResult, len(req.Targets)),
	}
	builds := make(map[string]int, width) // per distinct backend, not per slice
	for gi := range groups {
		g := &groups[gi]
		err := errs[gi]
		switch {
		case err != nil:
		case g.node == "": // never started: the request was canceled first
			err = fmt.Errorf("%w: %v", api.ErrCanceled, ctx.Err())
		case g.resp == nil || len(g.resp.Results) != len(g.indices):
			// Never trust a remote process's response shape: a skewed or
			// broken backend answering 200 with the wrong result count must
			// degrade to a per-target error, not an index panic.
			got := 0
			if g.resp != nil {
				got = len(g.resp.Results)
			}
			err = fmt.Errorf("backend %q returned %d results for %d targets", g.node, got, len(g.indices))
		}
		if err != nil {
			if len(req.Targets) == 1 {
				// RPC semantics pass through the gateway untouched.
				return nil, err
			}
			msg, code := err.Error(), api.Code(err)
			for _, idx := range g.indices {
				out.Results[idx] = api.TargetResult{Target: req.Targets[idx], Error: msg, ErrorCode: code}
				out.Failed++
			}
			continue
		}
		if out.Strategy == "" {
			out.Strategy = g.resp.Strategy
		}
		for j, idx := range g.indices {
			tr := g.resp.Results[j]
			if tr.Backend == "" {
				// Prefer the self-reported instance id; fall back to the
				// node URL so the serving backend is always identifiable.
				if tr.Backend = g.instance; tr.Backend == "" {
					tr.Backend = g.node
				}
			}
			out.Results[idx] = tr
			if tr.Error != "" {
				out.Failed++
			}
			if tr.Truncated {
				out.Truncated++
			}
			if tr.Degraded {
				out.Degraded++
			}
		}
		out.TotalEpochs += g.resp.TotalEpochs
		// Dedupe the lifetime counter by node URL — unique by ring
		// construction, unlike instance ids a fleet may misconfigure to
		// collide (e.g. every backend defaulting to "[::]:8080").
		builds[g.node] = g.resp.OfflineBuilds
	}
	if out.Strategy == "" {
		// Every slice failed; render the strategy the backends would have.
		if strat, err := core.ParseStrategy(req.Strategy); err == nil {
			out.Strategy = string(strat)
		} else {
			out.Strategy = req.Strategy
		}
	}
	for _, b := range builds {
		out.OfflineBuilds += b
	}
	out.WallMillis = time.Since(start).Milliseconds()
	return out, nil
}

// deleteAt returns a copy of s without the element at i.
func deleteAt(s []string, i int) []string {
	out := make([]string, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

// Stats implements api.API: fleet-wide sums at the top level plus the
// gateway's ring shape, routing counters and per-backend detail.
func (r *Router) Stats(ctx context.Context) (*api.Stats, error) {
	snap := r.health.snapshot()
	g := &api.GatewayStats{
		Backends:     len(r.opts.Backends),
		VNodes:       r.ring.VNodes(),
		Replicas:     r.opts.Replicas,
		Failovers:    atomic.LoadInt64(&r.failovers),
		BreakerSkips: atomic.LoadInt64(&r.breakerSkips),
		BackendStats: make([]api.BackendStats, len(snap)),
	}
	out := &api.Stats{APIVersion: api.Version, Gateway: g}

	// Fetch backend stats concurrently and under a deadline; a dead or
	// wedged backend contributes its routing counters but no stats
	// document — a monitoring scrape must never hang on one slow node.
	ctx, cancel := context.WithTimeout(ctx, statsTimeout)
	defer cancel()
	for i, ps := range snap {
		bs := &g.BackendStats[i]
		bs.URL = ps.node
		bs.Instance = ps.instance
		// One record, one snapshot: alive is exactly "breaker": "closed".
		bs.Alive = ps.state == peerClosed
		bs.DownEvents = ps.downEvents
		bs.Breaker = ps.state.String()
		bs.Requests = atomic.LoadInt64(&r.counters[ps.node].requests)
		bs.Failures = atomic.LoadInt64(&r.counters[ps.node].failures)
		if bs.Alive {
			g.Alive++
		}
	}
	// A backend whose scrape fails, is canceled or panics (fanout logs it)
	// just has no document: there is no error to pass on.
	_ = fanout.Each(ctx, len(snap), len(snap), func(i int) error {
		if bs := &g.BackendStats[i]; bs.Alive {
			if st, err := r.clients[bs.URL].Stats(ctx); err == nil {
				bs.Stats = st
			}
		}
		return nil
	})
	for i := range g.BackendStats {
		if st := g.BackendStats[i].Stats; st != nil {
			out.Add(st)
		}
	}
	return out, nil
}
