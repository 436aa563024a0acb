// Command apiserver serves the v1 selection API over HTTP: versioned
// selection requests with per-request strategy choice, target catalogs,
// health and stats, backed by the concurrent selection service (cached
// frameworks, singleflight offline builds, bounded fan-out).
//
// Endpoints:
//
//	POST /v1/select                  single or batch selection
//	GET  /v1/tasks/{task}/targets    target catalog of a task family (from
//	                                 the registry: builds nothing)
//	GET  /v1/healthz                 liveness + readiness (503 while warming)
//	GET  /v1/stats                   builds, cache, cumulative cost
//
// Usage:
//
//	apiserver -addr :8080 [flags]
//
// Flags:
//
//	-addr HOST:PORT      listen address (default :8080)
//	-seed N              default world seed (default 42)
//	-store DIR           artifact store; offline stage artifacts persist
//	                     across runs (matrix + clustering)
//	-workers N           per-round training parallelism (0 = one per CPU)
//	-build-workers N     offline-build parallelism: perf-matrix cells,
//	                     recall vectors and concurrent -warm worlds all
//	                     share this budget (0 = one per CPU; 1 = serial
//	                     builds; output is bit-identical either way)
//	-concurrency N       concurrent selections per batch (0 = one per CPU)
//	-cache-size N        max resident frameworks (0 = unbounded); beyond
//	                     it the LRU world is demoted to a fallback that
//	                     serves degraded if its rebuild fails, and the
//	                     LRU fallbacks are dropped past max(8, 2N) worlds,
//	                     so eviction frees memory only past that many
//	-warm SPEC           pre-build worlds before reporting ready, e.g.
//	                     "nlp" or "nlp,cv:7" (task at the base seed, or
//	                     task:seed); healthz answers 503 until done; with
//	                     -backends, only the worlds this backend owns on
//	                     the ring are warmed (fleet cold start builds each
//	                     world once per replica, not once per backend)
//	-backends URLS       the fleet's backend base URLs, comma-separated
//	                     and identical on every backend (the gateway's
//	                     -backends); enables ring-aware warmup and peer
//	                     artifact fetch over GET /v1/artifacts
//	-self URL            this backend's own entry in -backends (required
//	                     with -backends)
//	-replicas N          ring owners per world; must match the gateway
//	                     (default 2)
//	-seed-policy P       admission policy for per-request seeds: any
//	                     (default), fixed, allow=1,7,42, or max=N
//	-instance ID         instance id stamped on responses as X-Instance-Id
//	                     (default: the bound listen address); the sharding
//	                     gateway uses it to report and assert routing
//	-pprof-addr ADDR     serve net/http/pprof on a dedicated listener
//	                     (e.g. 127.0.0.1:6060; empty = disabled)
//	-train/-val/-test N  split sizes (0 = paper defaults; set all or none)
//	-shutdown-grace D    drain window after SIGTERM/SIGINT (default 15s)
//	-fault-schedule S    deterministic fault-injection schedule, e.g.
//	                     "seed=7;store.write:torn@0.5#3;handler:panic#1"
//	                     (empty = TWOPHASE_FAULT_SCHEDULE env, empty = off;
//	                     see internal/faultinject)
//	-rate R              per-client token refill, req/s (0 = no rate
//	                     limiting); refusals are 429 rate_limited
//	-burst N             per-client bucket capacity (0 = max(rate, 1))
//	-inflight N          max concurrently admitted selections
//	                     (0 = unlimited); excess requests queue
//	-queue N             max queued requests past the inflight bound;
//	                     beyond it requests shed as 503 overloaded
//
// -rate, -burst, -inflight and -queue are internal/admission's flag block,
// the same one cmd/gateway takes.
//
// On SIGTERM or SIGINT the server stops accepting connections and drains
// in-flight selections for the grace window; selections still running
// after it are aborted through context cancellation.
//
// The log is one JSON record per line on stderr (api.LogJSON): a stable
// "event" name and typed attrs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"twophase/internal/admission"
	"twophase/internal/api"
	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/faultinject"
	"twophase/internal/service"
	"twophase/internal/shard"
)

type config struct {
	addr          string
	seed          uint64
	storeDir      string
	workers       int
	buildWorkers  int
	concurrency   int
	cacheSize     int
	warmSpec      string
	backends      string
	self          string
	replicas      int
	seedPolicy    string
	instance      string
	pprofAddr     string
	sizes         datahub.Sizes
	shutdownGrace time.Duration
	admission     admission.Options // -rate, -burst, -inflight, -queue
	faultSchedule string
}

func main() {
	api.LogJSON(os.Stderr)
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.Uint64Var(&cfg.seed, "seed", 42, "default world seed")
	flag.StringVar(&cfg.storeDir, "store", "", "artifact store directory (optional)")
	flag.IntVar(&cfg.workers, "workers", 0, "per-round training workers (0 = one per CPU)")
	flag.IntVar(&cfg.buildWorkers, "build-workers", 0, "offline-build parallelism (0 = one per CPU, 1 = serial)")
	flag.IntVar(&cfg.concurrency, "concurrency", 0, "concurrent selections per batch (0 = one per CPU)")
	flag.IntVar(&cfg.cacheSize, "cache-size", 0, "max resident frameworks (0 = unbounded); beyond it LRU worlds become fallbacks for degraded serving, dropped past max(8, 2N) worlds")
	flag.StringVar(&cfg.warmSpec, "warm", "", `worlds to pre-build before reporting ready, e.g. "nlp,cv:7"`)
	flag.StringVar(&cfg.backends, "backends", "", "fleet backend base URLs (comma-separated, same list as the gateway)")
	flag.StringVar(&cfg.self, "self", "", "this backend's entry in -backends")
	flag.IntVar(&cfg.replicas, "replicas", shard.DefaultReplicas, "ring owners per world (must match the gateway)")
	flag.StringVar(&cfg.seedPolicy, "seed-policy", "any", "per-request seed admission: any, fixed, allow=..., max=N")
	flag.StringVar(&cfg.instance, "instance", "", "instance id for the X-Instance-Id header (default: bound address)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.IntVar(&cfg.sizes.Train, "train", 0, "train split size (0 = default)")
	flag.IntVar(&cfg.sizes.Val, "val", 0, "val split size (0 = default)")
	flag.IntVar(&cfg.sizes.Test, "test", 0, "test split size (0 = default)")
	flag.DurationVar(&cfg.shutdownGrace, "shutdown-grace", 15*time.Second, "drain window on SIGTERM/SIGINT")
	cfg.admission.RegisterFlags(flag.CommandLine)
	flag.StringVar(&cfg.faultSchedule, "fault-schedule", "", "deterministic fault-injection schedule (empty = TWOPHASE_FAULT_SCHEDULE env, empty = off)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "apiserver:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until ctx is canceled (then drains
// in-flight requests for the grace window) or the listener fails. If
// ready is non-nil the bound address is sent once the listener is up, so
// tests can bind 127.0.0.1:0.
func run(ctx context.Context, cfg config, ready chan<- string) error {
	zero := datahub.Sizes{}
	if cfg.sizes != zero && (cfg.sizes.Train <= 0 || cfg.sizes.Val <= 0 || cfg.sizes.Test <= 0) {
		return fmt.Errorf("-train, -val and -test must be set together (got %+v)", cfg.sizes)
	}
	ctrl, err := admission.FromFlags(cfg.admission)
	if err != nil {
		return err
	}
	if pprofAddr, err := api.StartPprof(cfg.pprofAddr); err != nil {
		return fmt.Errorf("pprof listener: %w", err)
	} else if pprofAddr != "" {
		slog.Info("apiserver.pprof", slog.String("addr", pprofAddr))
	}
	// A malformed schedule is a configuration error and must fail startup
	// loudly — a chaos run whose faults silently never fire would "prove"
	// invariants it did not test.
	if err := faultinject.Enable(cfg.faultSchedule); err != nil {
		return err
	}
	seeds, err := service.ParseSeedPolicy(cfg.seedPolicy)
	if err != nil {
		return err
	}
	warmKeys, err := service.ParseWarmSpec(cfg.warmSpec, cfg.seed)
	if err != nil {
		return err
	}
	// With a fleet membership list, this backend joins the same
	// consistent-hash ring the gateway routes on: warmup narrows to the
	// worlds this backend owns, and worlds missing from the local store
	// are fetched from their ring owners before falling back to a build.
	var fetch service.ArtifactFetcher
	if cfg.backends != "" {
		nodes, err := shard.ParseBackends(cfg.backends)
		if err != nil {
			return err
		}
		self := strings.TrimRight(strings.TrimSpace(cfg.self), "/")
		if !slices.Contains(nodes, self) {
			return fmt.Errorf("-self %q must be one of -backends %v", cfg.self, nodes)
		}
		if cfg.replicas <= 0 {
			return fmt.Errorf("-replicas must be positive (got %d)", cfg.replicas)
		}
		ring, err := shard.NewRing(nodes, shard.DefaultVNodes)
		if err != nil {
			return err
		}
		warmKeys = shard.OwnedKeys(warmKeys, ring, self, cfg.replicas)
		if len(nodes) > 1 {
			fetch = shard.NewArtifactFetcher(ring, self, cfg.replicas, nil)
		}
	}
	if err := service.ValidateWarmCapacity(warmKeys, cfg.cacheSize); err != nil {
		return err
	}
	svc, err := service.New(service.Options{
		Base:        core.Options{Seed: cfg.seed, Sizes: cfg.sizes, Workers: cfg.workers, BuildWorkers: cfg.buildWorkers},
		StoreDir:    cfg.storeDir,
		Concurrency: cfg.concurrency,
		CacheSize:   cfg.cacheSize,
		Seeds:       seeds,
		Fetch:       fetch,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// The listener accepts immediately, but healthz reports "warming"
	// (503) until the configured worlds are resident, so load balancers
	// hold traffic while the expensive offline phase runs. A failed
	// warmup is a configuration error and brings the server down (the
	// cancel cause survives the graceful drain and is returned below).
	var warmed atomic.Bool
	warmed.Store(len(warmKeys) == 0)
	ctx, fail := context.WithCancelCause(ctx)
	defer fail(nil)
	if len(warmKeys) > 0 {
		go func() {
			start := time.Now()
			results, err := svc.WarmResults(ctx, warmKeys)
			for _, r := range results {
				if r.Err != nil {
					slog.Error("apiserver.warm_failed", slog.String("world", r.Key.String()), slog.Duration("took", r.Duration), slog.Any("err", r.Err))
					continue
				}
				slog.Info("apiserver.warm", slog.String("world", r.Key.String()), slog.Duration("took", r.Duration))
			}
			if err != nil {
				fail(fmt.Errorf("warmup: %w", err))
				return
			}
			warmed.Store(true)
			slog.Info("apiserver.warm_done", slog.Int("n", len(warmKeys)), slog.Duration("took", time.Since(start)), slog.String("spec", cfg.warmSpec))
		}()
	}
	// Every response names its serving process, so a routing tier (and
	// its tests) can assert which backend actually served a request.
	instance := cfg.instance
	if instance == "" {
		instance = ln.Addr().String()
	}
	hopts := api.HandlerOptions{
		Ready:     warmed.Load,
		Instance:  instance,
		Admission: ctrl,
	}
	// Guard the typed nil: a storeless service must leave the interface
	// nil so the artifact route stays unmounted.
	if st := svc.Store(); st != nil {
		hopts.Artifacts = st
	}
	handler := api.NewHandlerWith(api.NewDispatcher(svc, cfg.seed), hopts)
	slog.Info("apiserver.serving", slog.String("addr", ln.Addr().String()), slog.String("instance", instance),
		slog.Uint64("seed", cfg.seed), slog.Int("cache_size", cfg.cacheSize), slog.String("seed_policy", seeds.String()))
	if ready != nil {
		ready <- ln.Addr().String()
	}
	err = api.ServeUntilShutdown(ctx, ln, handler, cfg.shutdownGrace)
	// A warmup failure canceled the context itself; it is the exit
	// error, not a clean shutdown.
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		return cause
	}
	return err
}
