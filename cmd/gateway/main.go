// Command gateway fronts a fleet of apiserver backends with consistent-
// hash routing: every (task, seed) world hashes to a stable replica owner
// set, batch selections scatter across the world's live owners and gather
// back in request order, and a sub-request hitting a dead backend fails
// over to the next replica — selections are deterministic in the world,
// so failover is invisible to clients. Each backend has one health
// record: two consecutive failures — missed probes and failed requests
// alike — mark it down (its circuit opens and it is skipped), and it is
// re-admitted by its first passed probe, reclaiming its exact key range
// (cache affinity survives a bounce).
//
// The gateway serves the same v1 contract as a single backend:
//
//	POST /v1/select                  scatter-gathered selection
//	GET  /v1/tasks/{task}/targets    proxied target catalog
//	GET  /v1/healthz                 ok while ≥1 backend is alive
//	GET  /v1/stats                   fleet sums + ring/routing counters
//
// Usage:
//
//	gateway -backends http://h1:8080,http://h2:8080 [flags]
//
// Flags:
//
//	-addr HOST:PORT      listen address (default :8090)
//	-backends URLS       comma-separated backend base URLs (required)
//	-replicas N          owner replicas per (task, seed) key (default 2)
//	-vnodes N            virtual nodes per backend on the ring (default 64)
//	-seed N              routing seed for requests without one; must match
//	                     the backends' -seed (default 42)
//	-probe-interval D    health-check period (default 1s)
//	-instance ID         this gateway's X-Instance-Id (default "gateway")
//	-pprof-addr ADDR     serve net/http/pprof on a dedicated listener
//	                     (e.g. 127.0.0.1:6061; empty = disabled)
//	-shutdown-grace D    drain window after SIGTERM/SIGINT (default 15s)
//	-attempt-timeout D   per-attempt timeout on each forwarded backend
//	                     request, distinct from the request's deadline_ms:
//	                     a hung backend costs one attempt and a failover,
//	                     not the whole deadline (0 = disabled)
//	-fault-schedule S    deterministic fault-injection schedule applied to
//	                     the gateway→backend transport, e.g.
//	                     "seed=7;transport:reset@0.2#5" (empty =
//	                     TWOPHASE_FAULT_SCHEDULE env, empty = off)
//
// Admission control (all off by default; internal/admission's flag block,
// the same one cmd/apiserver takes):
//
//	-rate R              per-client token refill, requests/second
//	                     (0 = no rate limiting); refusals are 429
//	                     rate_limited with Retry-After
//	-burst N             per-client bucket capacity (0 = max(rate, 1))
//	-inflight N          max concurrently admitted selections
//	                     (0 = unlimited); excess requests queue
//	-queue N             max queued requests past the inflight bound;
//	                     beyond it the lowest-priority waiter is shed as
//	                     503 overloaded with Retry-After
//
// The log is one JSON record per line on stderr (api.LogJSON): a stable
// "event" name and typed attrs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"twophase/internal/admission"
	"twophase/internal/api"
	"twophase/internal/faultinject"
	"twophase/internal/shard"
)

type config struct {
	addr           string
	backends       string
	replicas       int
	vnodes         int
	seed           uint64
	probeInterval  time.Duration
	instance       string
	pprofAddr      string
	shutdownGrace  time.Duration
	admission      admission.Options // -rate, -burst, -inflight, -queue
	attemptTimeout time.Duration
	faultSchedule  string
}

func main() {
	api.LogJSON(os.Stderr)
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", ":8090", "listen address")
	flag.StringVar(&cfg.backends, "backends", "", "comma-separated backend base URLs (required)")
	flag.IntVar(&cfg.replicas, "replicas", shard.DefaultReplicas, "owner replicas per (task, seed) key")
	flag.IntVar(&cfg.vnodes, "vnodes", shard.DefaultVNodes, "virtual nodes per backend on the ring")
	flag.Uint64Var(&cfg.seed, "seed", 42, "routing seed for requests without one (must match the backends')")
	flag.DurationVar(&cfg.probeInterval, "probe-interval", shard.DefaultProbeInterval, "health-check period")
	flag.StringVar(&cfg.instance, "instance", "gateway", "this gateway's X-Instance-Id")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.DurationVar(&cfg.shutdownGrace, "shutdown-grace", 15*time.Second, "drain window on SIGTERM/SIGINT")
	cfg.admission.RegisterFlags(flag.CommandLine)
	flag.DurationVar(&cfg.attemptTimeout, "attempt-timeout", 0, "per-attempt timeout on forwarded backend requests (0 = disabled)")
	flag.StringVar(&cfg.faultSchedule, "fault-schedule", "", "deterministic fault-injection schedule (empty = TWOPHASE_FAULT_SCHEDULE env, empty = off)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
}

// run starts the gateway and blocks until ctx is canceled (then drains
// for the grace window) or the listener fails. If ready is non-nil the
// bound address is sent once the listener is up, so tests can bind
// 127.0.0.1:0.
func run(ctx context.Context, cfg config, ready chan<- string) error {
	backends, err := shard.ParseBackends(cfg.backends)
	if err != nil {
		return err
	}
	if pprofAddr, err := api.StartPprof(cfg.pprofAddr); err != nil {
		return fmt.Errorf("pprof listener: %w", err)
	} else if pprofAddr != "" {
		slog.Info("gateway.pprof", slog.String("addr", pprofAddr))
	}
	if cfg.replicas <= 0 || cfg.vnodes <= 0 || cfg.probeInterval <= 0 {
		return fmt.Errorf("-replicas, -vnodes and -probe-interval must be positive")
	}
	// Admission guards the gateway's own front door: requests refused here
	// never reach a backend, so an overload sheds with a typed 429/503
	// instead of queueing up against the fleet.
	ctrl, err := admission.FromFlags(cfg.admission)
	if err != nil {
		return err
	}
	if cfg.attemptTimeout < 0 {
		return fmt.Errorf("-attempt-timeout must be non-negative")
	}
	// A malformed schedule is a configuration error and must fail startup
	// loudly — a chaos run whose faults silently never fire would "prove"
	// invariants it did not test.
	if err := faultinject.Enable(cfg.faultSchedule); err != nil {
		return err
	}
	router, err := shard.NewRouter(shard.RouterOptions{
		Backends: backends,
		Replicas: cfg.replicas,
		VNodes:   cfg.vnodes,
		// The routing seed also seeds the half-open coin, so a seeded
		// chaos run re-admits backends in the same order every time.
		Seed:          cfg.seed,
		ProbeInterval: cfg.probeInterval,
		// The transport wrapper is where the "transport" fault site lives
		// (latency spikes, resets, raw 5xx bursts); with no schedule armed
		// it is a single atomic load per round trip.
		HTTPClient:     &http.Client{Transport: faultinject.Transport(nil)},
		AttemptTimeout: cfg.attemptTimeout,
	})
	if err != nil {
		return err
	}
	// The probe loop outlives the signal context on purpose: after
	// SIGTERM the server keeps draining in-flight requests for the grace
	// window, and failover during that drain still needs a live health
	// view. The deferred Close cancels the loop and *waits* for it once
	// ServeUntilShutdown returns, so shutdown leaks no probe goroutine.
	probeCtx, stopProbes := context.WithCancel(context.Background())
	defer stopProbes()
	router.Start(probeCtx)
	defer router.Close()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// The gateway is ready when at least one backend has been probed
	// alive: healthz answers 503 while the whole fleet is down or still
	// warming, so a load balancer in front of multiple gateways holds
	// traffic exactly like one in front of a warming single node. Until
	// the first probe round lands, the health view's optimistic defaults
	// must not leak out as readiness.
	members := router.Membership()
	handler := api.NewHandlerWith(router, api.HandlerOptions{
		Ready:     func() bool { return members.Probed() && members.AliveCount() > 0 },
		Instance:  cfg.instance,
		Admission: ctrl,
	})
	slog.Info("gateway.serving", slog.String("addr", ln.Addr().String()), slog.Int("backends", len(backends)),
		slog.Int("replicas", cfg.replicas), slog.Int("vnodes", cfg.vnodes), slog.Uint64("seed", cfg.seed))
	if ready != nil {
		ready <- ln.Addr().String()
	}
	return api.ServeUntilShutdown(ctx, ln, handler, cfg.shutdownGrace)
}
