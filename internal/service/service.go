// Package service is the concurrent selection-serving layer: the first
// piece of the architecture that turns the paper's two-phase pipeline into
// something that can sit behind traffic. A Service resolves one
// core.Framework per (task, seed) world through a lifecycle manager — a
// capacity-bounded LRU cache with singleflight build coalescing and
// refcounted handles, so N concurrent requests for the same world trigger
// exactly one offline build and an eviction never tears a framework out
// from under an in-flight selection — and then serves online selections:
// single targets, explicit batches, or the whole target catalog, fanned
// out across a bounded concurrency budget. The manager is the one table of
// built worlds: an evicted world whose rebuild fails is served from its
// lifecycle fallback, and a Result says so in Degraded.
//
// The offline phase is a staged pipeline whose expensive stages persist
// independently through the artifact store: the performance matrix and the
// clustering artifact both round-trip, so a warm start loads them and
// recomputes nothing — core.AssembleArtifacts rebuilds only the stages
// whose inputs changed.
//
// Every result is bit-identical to the sequential pipeline: per-round
// candidate training parallelizes via selection.Config.Workers (each run
// owns its RNG stream and stage results merge in fixed pool order), batch
// results come back in request order, and each request carries its own
// ledger while a shared concurrency-safe ledger accumulates the service's
// total spend.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"twophase/internal/artifact"
	"twophase/internal/core"
	"twophase/internal/fanout"
	"twophase/internal/faultinject"
	"twophase/internal/lifecycle"
	"twophase/internal/store"
	"twophase/internal/trainer"
)

// Options configures a Service.
type Options struct {
	// Base supplies the per-family build options (seed, sizes,
	// hyperparameters, recall settings, and the Workers / BuildWorkers
	// widths every world is built and served with). Base.Task is ignored —
	// the task family is chosen per request. Base.BuildWorkers also bounds,
	// via Warm, how many worlds build at once.
	Base core.Options
	// StoreDir, when non-empty, persists offline artifacts (performance
	// matrices, clustering artifacts) so later processes skip the offline
	// build entirely.
	StoreDir string
	// Concurrency bounds how many selections of one request run at once.
	// Like Base.Workers and Base.BuildWorkers it is a fanout width, passed
	// through as it stands: 0 (or less) means one per CPU, 1 forces the
	// sequential path. Results are identical either way.
	Concurrency int
	// CacheSize bounds how many built frameworks stay resident (LRU
	// eviction; in-flight selections keep using an evicted framework
	// until they finish). 0 means unbounded, which is safe only when
	// Seeds bounds the distinct worlds clients can request.
	CacheSize int
	// Seeds is the admission policy for per-request seed overrides; the
	// zero value admits any seed.
	Seeds SeedPolicy
	// Fetch, when non-nil, resolves a world's binary artifacts from the
	// fleet (typically the world's ring owners) when the local store
	// misses, before the service falls back to an offline build. Only
	// consulted when StoreDir is configured: fetched artifacts persist
	// locally so this node serves them onward.
	Fetch ArtifactFetcher
}

// ArtifactFetcher fetches the binary encoding of one artifact (kind is a
// store kind directory: "matrices" or "recalls"; name is the world key,
// e.g. "nlp-seed42") from a fleet peer. The returned bytes are
// checksum-verified by the service before anything trusts them.
type ArtifactFetcher func(ctx context.Context, kind, name string) ([]byte, error)

// ErrNoPeers is returned (wrapped) by an ArtifactFetcher when the named
// world has no remote owner to fetch from — typically because this
// backend is the world's only replica. The service then builds locally
// without counting a fetch failure: nothing was reachable to fail.
var ErrNoPeers = errors.New("service: no remote artifact owners")

// ArtifactStats counts the artifact-resolution outcomes of Service.load —
// how worlds came to be resident in this process — and is the "artifacts"
// block of /v1/stats as it stands: the tags are the wire names.
type ArtifactStats struct {
	// Hits counts worlds assembled from artifacts already in the local
	// store (warm starts with zero training).
	Hits int64 `json:"artifact_hits"`
	// Fetches counts artifact documents fetched from ring peers and
	// verified (a world fetch counts its matrix and recall separately).
	Fetches int64 `json:"artifact_fetches"`
	// FetchFailures counts world fetches that failed end to end and fell
	// back to a local build.
	FetchFailures int64 `json:"fetch_failures"`
	// FallbackBuilds counts offline builds executed despite a configured
	// store — the world was absent locally and not fetchable.
	FallbackBuilds int64 `json:"fallback_builds"`
}

// Service serves two-phase model selections with lifecycle-managed
// frameworks.
type Service struct {
	opts Options
	st   *store.Store
	mgr  *lifecycle.Manager

	mu         sync.Mutex
	persistErr error                     // last failed artifact write, if any
	admitted   map[uint64]*seedAdmission // distinct seeds admitted under MaxDistinct

	builds int64 // offline builds actually executed (atomic)
	cost   trainer.SharedLedger

	// Artifact-resolution counters (atomic); see ArtifactStats.
	artifactHits   int64
	artifactFetch  int64
	fetchFailures  int64
	fallbackBuilds int64

	panics int64 // selection-worker panics recovered (atomic)
}

// New creates a Service. The store directory, if configured, is created on
// the spot so a misconfigured path fails at construction, not mid-request.
func New(opts Options) (*Service, error) {
	if opts.CacheSize < 0 {
		return nil, fmt.Errorf("service: negative cache size %d", opts.CacheSize)
	}
	s := &Service{
		opts:     opts,
		admitted: make(map[uint64]*seedAdmission),
	}
	if opts.StoreDir != "" {
		st, err := store.Open(opts.StoreDir)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		s.st = st
	}
	mgr, err := lifecycle.New(lifecycle.Options{
		Capacity: opts.CacheSize,
		Build: func(ctx context.Context, key lifecycle.Key) (*core.Framework, error) {
			return s.load(ctx, key.Task, key.Seed)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s.mgr = mgr
	return s, nil
}

// acquire admits the seed and leases the framework for one world. The
// admission is settled with the outcome: a seed whose every resolution
// failed returns its MaxDistinct quota slot. A waiter dying on its own
// context settles false, which is safe — the shared build's own acquire
// is still pending and settles true if it succeeds.
func (s *Service) acquire(ctx context.Context, task string, seed uint64) (*lifecycle.Handle, error) {
	settle, err := s.admitSeed(seed)
	if err != nil {
		return nil, err
	}
	h, err := s.mgr.Get(ctx, lifecycle.Key{Task: task, Seed: seed})
	settle(err == nil)
	return h, err
}

// matrixKey names the stored artifacts for a (task, seed) pair; the seed
// is part of the key because the artifacts encode one synthetic world.
func matrixKey(task string, seed uint64) string {
	return lifecycle.Key{Task: task, Seed: seed}.String()
}

// Degraded reports the lifecycle manager's degraded-serving gauges: the
// worlds served from their fallback and the failed rebuilds answered so.
func (s *Service) Degraded() (worlds int, serves int64) { return s.mgr.Degraded() }

// Panics counts selection-worker panics recovered by the service.
func (s *Service) Panics() int64 { return atomic.LoadInt64(&s.panics) }

// load resolves a framework through the artifact tiers: the local
// store first, then — when a fetcher is configured — the world's fleet
// peers, and only then the offline build (whose artifacts persist for the
// next process).
// With both the matrix and the clustering artifact at hand, a warm start
// recomputes neither — zero fine-tuning runs and zero clustering passes.
//
// The store's typed errors drive the fallback: only a truly absent
// artifact (ErrNotFound) consults peers, a corrupt one rebuilds locally
// (the rewrite heals the store), and any other read failure — a transient
// I/O or permission error — propagates instead of silently paying a
// rebuild. A failure is the lifecycle manager's to answer: from the
// world's fallback when it has one, with the error otherwise.
func (s *Service) load(ctx context.Context, task string, seed uint64) (*core.Framework, error) {
	opts := s.opts.Base
	opts.Task = task
	opts.Seed = seed
	key := matrixKey(task, seed)
	if s.st != nil {
		m, err := s.st.GetMatrix(key)
		switch {
		case err == nil:
			art := core.Artifacts{Matrix: m}
			if ra, rerr := s.st.GetRecall(key); rerr == nil {
				art.Recall = ra
			}
			if fw, aerr := core.AssembleArtifacts(opts, art); aerr == nil {
				atomic.AddInt64(&s.artifactHits, 1)
				if !fw.Stages.RecallLoaded {
					// The clustering artifact was missing or stale; the
					// assembly recomputed it, so persist the fresh one
					// for the next process (best-effort, like persist).
					if perr := s.st.PutRecall(key, fw.RecallArtifact()); perr != nil {
						s.setPersistErr(perr)
					}
				}
				return fw, nil
			}
			// Mismatched or stale matrix: fall through to a fresh build,
			// which overwrites every stage artifact.
		case errors.Is(err, store.ErrNotFound):
			if s.opts.Fetch != nil {
				fw, ferr := s.fetchWorld(ctx, opts, key)
				if ferr == nil {
					return fw, nil
				}
				// A world with no remote owners (this backend is the
				// world's only replica) was never fetchable — building
				// it is the plan, not a distribution failure.
				if !errors.Is(ferr, ErrNoPeers) {
					atomic.AddInt64(&s.fetchFailures, 1)
				}
			}
		case errors.Is(err, store.ErrCorrupt):
			// Rebuild below; the persisted rewrite heals the store.
		default:
			return nil, err
		}
		atomic.AddInt64(&s.fallbackBuilds, 1)
	}
	if f := faultinject.On(faultinject.SiteBuild); f != nil {
		if f.Action == faultinject.ActHang {
			f.Sleep(ctx.Done())
		} else {
			return nil, fmt.Errorf("service: build %s: %w", key, f.Err())
		}
	}
	fw, err := core.Build(opts)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&s.builds, 1)
	if s.st != nil {
		// Persistence is best-effort: the framework in memory is valid
		// regardless, and failing the request here would leave the
		// service permanently unable to serve on a full or read-only
		// store volume. The error stays visible via PersistErr.
		if err := s.persist(fw); err != nil {
			s.setPersistErr(err)
		}
	}
	return fw, nil
}

// fetchWorld resolves one world's artifacts from fleet peers: fetch the
// binary matrix (mandatory) and recall artifact (best-effort — a miss
// just recomputes the cheap clustering stage), verify both checksums,
// assemble, and persist the fetched bytes verbatim so this node serves
// them onward to later peers. Assembly failure is a fetch failure: a
// peer's artifact that doesn't match this server's world provenance must
// never steer selection.
func (s *Service) fetchWorld(ctx context.Context, opts core.Options, key string) (*core.Framework, error) {
	data, err := s.opts.Fetch(ctx, "matrices", key)
	if err != nil {
		return nil, err
	}
	m, err := artifact.DecodeMatrix(data)
	if err != nil {
		return nil, fmt.Errorf("service: fetched matrix %s: %w", key, err)
	}
	art := core.Artifacts{Matrix: m}
	var recallBytes []byte
	if rd, rerr := s.opts.Fetch(ctx, "recalls", key); rerr == nil {
		if ra, derr := artifact.DecodeRecall(rd); derr == nil {
			art.Recall = ra
			recallBytes = rd
		}
	}
	fw, err := core.AssembleArtifacts(opts, art)
	if err != nil {
		return nil, fmt.Errorf("service: fetched artifacts for %s do not assemble: %w", key, err)
	}
	atomic.AddInt64(&s.artifactFetch, 1)
	if err := s.st.PutVerified("matrices", key, data); err != nil {
		s.setPersistErr(err)
	}
	if recallBytes != nil {
		atomic.AddInt64(&s.artifactFetch, 1)
		if err := s.st.PutVerified("recalls", key, recallBytes); err != nil {
			s.setPersistErr(err)
		}
	} else if !fw.Stages.RecallLoaded {
		if err := s.st.PutRecall(key, fw.RecallArtifact()); err != nil {
			s.setPersistErr(err)
		}
	}
	return fw, nil
}

func (s *Service) setPersistErr(err error) {
	s.mu.Lock()
	s.persistErr = err
	s.mu.Unlock()
}

// PersistErr reports the most recent artifact-write failure, or nil.
// Frameworks still serve from memory when persistence fails; this is the
// observability hook for that degraded state.
func (s *Service) PersistErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistErr
}

// persist writes the framework's offline stage artifacts to the store:
// the performance matrix (stage 2) and the clustering artifact (stage 3).
func (s *Service) persist(fw *core.Framework) error {
	key := matrixKey(fw.Task, fw.Seed)
	if err := s.st.PutMatrix(key, fw.Matrix); err != nil {
		return err
	}
	return s.st.PutRecall(key, fw.RecallArtifact())
}

// Builds returns how many offline builds this service has executed — zero
// when every framework came out of the store, one per world otherwise.
func (s *Service) Builds() int { return int(atomic.LoadInt64(&s.builds)) }

// ArtifactStats snapshots the artifact-resolution counters.
func (s *Service) ArtifactStats() ArtifactStats {
	return ArtifactStats{
		Hits:           atomic.LoadInt64(&s.artifactHits),
		Fetches:        atomic.LoadInt64(&s.artifactFetch),
		FetchFailures:  atomic.LoadInt64(&s.fetchFailures),
		FallbackBuilds: atomic.LoadInt64(&s.fallbackBuilds),
	}
}

// Store exposes the service's artifact store (nil when persistence is not
// configured) so the serving layer can mount the artifact-distribution
// endpoint over it.
func (s *Service) Store() *store.Store { return s.st }

// Cost returns a snapshot of the epochs spent by all selections served so
// far, across all goroutines.
func (s *Service) Cost() trainer.Ledger { return s.cost.Snapshot() }

// CacheStats snapshots the lifecycle cache: occupancy, hit/miss/eviction
// counts and cumulative build time.
func (s *Service) CacheStats() lifecycle.Stats { return s.mgr.Stats() }

// WarmResult records the outcome of warming one world: how long this
// caller waited for the framework (the build duration on a cold cache,
// near zero when another waiter already built it) and the error, if any.
type WarmResult struct {
	Key      lifecycle.Key
	Duration time.Duration
	Err      error
}

// Warm pre-builds the given worlds concurrently so the first real
// request hits a resident framework; servers call it before reporting
// ready. Each world goes through the same admission-and-settle path as a
// request, so a failed warm build returns its seed-quota slot exactly
// like a failed request does.
func (s *Service) Warm(ctx context.Context, keys []lifecycle.Key) error {
	_, err := s.WarmResults(ctx, keys)
	return err
}

// WarmResults is Warm returning the per-world timings in keys order, so
// serving binaries can log each world's build duration. Worlds warm
// concurrently, but no more than the BuildWorkers budget at once — each
// build already fans its pipeline stages out under the same budget, so
// an unbounded warm of W worlds would oversubscribe the box W-fold right
// at startup. The joined error aggregates every failed world.
func (s *Service) WarmResults(ctx context.Context, keys []lifecycle.Key) ([]WarmResult, error) {
	results := make([]WarmResult, len(keys))
	errs := fanout.Errors(ctx, len(keys), s.opts.Base.BuildWorkers, func(i int) error {
		k := keys[i]
		results[i].Key = k
		start := time.Now()
		h, err := s.acquire(ctx, k.Task, k.Seed)
		results[i].Duration = time.Since(start)
		if err != nil {
			return err
		}
		h.Release()
		return nil
	})
	for i, k := range keys {
		r := &results[i]
		r.Err = errs[i]
		if r.Key != k { // never started: the warm was canceled first
			*r = WarmResult{Key: k, Err: ctx.Err()}
		}
		if r.Err != nil {
			errs[i] = fmt.Errorf("warm %s: %w", k, r.Err)
		}
	}
	return results, errors.Join(errs...)
}

// Result is one entry of a batched selection.
type Result struct {
	Target string
	Report *core.Report
	Err    error
	// Degraded reports that this target was served from the world's
	// lifecycle fallback because the latest rebuild or fetch failed.
	Degraded bool
}

// Request is the service-level selection request: one task family, one or
// more targets, and the strategy plus tuning knobs that apply to all of
// them. It is the single dispatch point every caller — CLI, HTTP, tests —
// routes through instead of hard-wiring individual Framework methods.
type Request struct {
	// Task is the task family ("nlp" or "cv").
	Task string
	// Targets are the target dataset names, served concurrently under the
	// service's concurrency budget.
	Targets []string
	// Strategy picks the selection procedure; empty means two-phase.
	Strategy core.Strategy
	// Seed optionally overrides the service's base world seed for this
	// request. Frameworks are cached per (task, seed) under the
	// lifecycle cache's capacity bound, and the seed must pass the
	// service's admission policy — an open deployment caps resident
	// worlds with Options.CacheSize and restricts client seeds with
	// Options.Seeds so untrusted requests cannot force unbounded builds.
	Seed *uint64
	// EnsembleK is the ensemble size for the ensemble strategy
	// (0 means the default; ignored otherwise).
	EnsembleK int
	// MaxEpochs, when non-nil, caps each target's fine-phase training
	// epochs; the selection then reports Truncated with its best-so-far
	// winner. 0 is a real zero budget; nil is unbounded.
	MaxEpochs *int
	// Deadline, when nonzero, is each target's anytime wall-clock bound.
	// Unlike a context deadline it truncates (a result) rather than
	// cancels (an error). Every target of a batch shares the same
	// absolute instant.
	Deadline time.Time
	// PrefilterTopK, when positive, lsq-ranks each target's candidate
	// pool and hands only the top-k to the epoch-trained strategies
	// (0 disables; ignored by the lsq strategy itself).
	PrefilterTopK int
}

// Do serves a selection request: it resolves the framework once, fans the
// targets out concurrently under the service's concurrency budget, and
// returns per-target results in request order. A per-target failure is
// recorded in its Result without aborting the rest of the batch; a
// request-level failure (unknown task, rejected seed, canceled context
// while waiting on the framework) is returned as the error. A context
// canceled mid-batch skips every queued target, recording ctx.Err() in
// its Result instead of running the selection. The framework lease is
// held until the whole batch finishes, so a concurrent eviction can never
// invalidate it mid-request.
func (s *Service) Do(ctx context.Context, req Request) ([]Result, error) {
	seed := s.opts.Base.Seed
	if req.Seed != nil {
		seed = *req.Seed
	}
	h, err := s.acquire(ctx, req.Task, seed)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	fw := h.Framework()
	opts := core.SelectOptions{
		Strategy: req.Strategy, EnsembleK: req.EnsembleK,
		MaxEpochs: req.MaxEpochs, Deadline: req.Deadline,
		PrefilterTopK: req.PrefilterTopK,
	}
	results := make([]Result, len(req.Targets))
	errs := fanout.Errors(ctx, len(req.Targets), s.opts.Concurrency, func(i int) error {
		d, err := fw.Catalog.Get(req.Targets[i])
		if err != nil {
			return err
		}
		report, err := fw.SelectWith(ctx, d, opts)
		if err != nil {
			return err
		}
		s.cost.Add(report.Ledger)
		results[i].Report, results[i].Degraded = report, h.Degraded()
		return nil
	})
	for i, name := range req.Targets {
		r := &results[i]
		r.Target, r.Err = name, errs[i]
		// A panicking selection (a malformed world, a bug in a strategy)
		// costs one target, not the process: fanout recovered it, here or
		// in a stage's own fan-out, and it surfaces as a typed internal error.
		var p *fanout.Panic
		switch {
		case errors.As(r.Err, &p):
			atomic.AddInt64(&s.panics, 1)
			r.Err = fmt.Errorf("service: selection for %q panicked: %w", name, r.Err)
		case r.Err == nil && r.Report == nil:
			r.Err = ctx.Err() // never started: the batch was canceled first
		}
	}
	return results, nil
}
