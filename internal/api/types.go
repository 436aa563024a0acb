// Package api is the versioned serving contract of the two-phase
// selection system: request/response types shared bit-for-bit by the HTTP
// server, the Go client and the CLI, typed HTTP-mappable errors, an
// in-process dispatcher over service.Service, and the v1 net/http handler.
//
// The same API interface backs both transports, so a selection served
// over HTTP is byte-identical to one served in process for the same seed.
package api

import (
	"fmt"

	"twophase/internal/admission"
	"twophase/internal/core"
	"twophase/internal/lifecycle"
	"twophase/internal/service"
)

// Version is the contract version stamped on every response.
// v1.1 adds the anytime-budget request fields (deadline_ms, max_epochs),
// the truncated/budget response block, and retryable wire errors
// (rate_limited, overloaded, retry_after_ms); every v1 document remains
// valid, so the path prefix stays /v1.
const Version = "v1.1"

// SelectOptions are the per-request tuning knobs shared by every serving
// path. The struct embeds flat into SelectRequest (the wire shape is
// unchanged from v1); Validate is the single gate the Dispatcher, the HTTP
// handler and the Client all route through, so the three paths cannot
// drift on what a well-formed request is. Training width is the server's
// setting: a "workers" field in a body is ignored like any unknown field.
type SelectOptions struct {
	// Strategy picks the selection procedure: "two-phase" (default),
	// "sh", "bf", "ensemble" or "lsq" (the zero-epoch closed-form
	// baseline).
	Strategy string `json:"strategy,omitempty"`
	// Seed optionally overrides the serving world seed; omitted or null
	// means the server's configured seed. Frameworks are cached per
	// (task, seed).
	Seed *uint64 `json:"seed,omitempty"`
	// EnsembleK is the ensemble size for strategy "ensemble"
	// (0 = server default of 3).
	EnsembleK int `json:"ensemble_k,omitempty"`
	// DeadlineMS is the anytime budget in wall-clock milliseconds: the
	// fine phase stops at the last stage boundary inside the deadline and
	// the response reports truncated=true with the best-so-far winner —
	// a 200, never a 499 (which remains reserved for the client walking
	// away). 0 means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// MaxEpochs caps the training epochs per target. An explicit 0 is a
	// real budget (no training; the winner falls out of the untrained
	// heads deterministically); omitted/null means unbounded. Unlike
	// DeadlineMS, a fixed epoch cap truncates bit-identically on every
	// serving path. Strategy "lsq" never trains, so any cap — including
	// 0 — leaves it untruncated.
	MaxEpochs *int `json:"max_epochs,omitempty"`
	// PrefilterTopK, when positive, runs the zero-epoch lsq ranking over
	// the candidate pool first and hands only the top-k candidates to the
	// epoch-trained strategies (ignored by strategy "lsq" itself). The
	// ranking charges proxy-inference cost to the request's epoch total.
	// 0 (the default) disables the pre-filter: responses are byte-identical
	// to requests without the field.
	PrefilterTopK int `json:"prefilter_top_k,omitempty"`
}

// SelectRequest asks for one or more target selections within a task
// family. The zero values of the optional fields mean "service default".
type SelectRequest struct {
	// Task is the task family ("nlp" or "cv").
	Task string `json:"task"`
	// Targets are the target dataset names; a single-element slice is the
	// single-selection form. A request with no targets is rejected with
	// ErrBadRequest.
	Targets []string `json:"targets"`
	// SelectOptions embeds the per-request tuning knobs; JSON marshals
	// them flat, so the wire shape is identical to v1.
	SelectOptions
}

// Normalize is the request's one validation pass: it rejects a malformed
// shape or tuning knob with ErrBadRequest and resolves the wire strategy
// name to its canonical core.Strategy (empty means two-phase). It is
// transport-independent, so a request rejected here is rejected
// identically on every path.
func (r *SelectRequest) Normalize() (core.Strategy, error) {
	if r.Task == "" {
		return "", errBadRequest("missing task")
	}
	if len(r.Targets) == 0 {
		return "", errBadRequest("no targets")
	}
	for _, t := range r.Targets {
		if t == "" {
			return "", errBadRequest("empty target name")
		}
	}
	if r.EnsembleK < 0 || r.PrefilterTopK < 0 {
		return "", errBadRequest(fmt.Sprintf("negative tuning field (ensemble_k=%d, prefilter_top_k=%d)", r.EnsembleK, r.PrefilterTopK))
	}
	if r.DeadlineMS < 0 {
		return "", errBadRequest(fmt.Sprintf("negative deadline_ms %d", r.DeadlineMS))
	}
	if r.MaxEpochs != nil && *r.MaxEpochs < 0 {
		return "", errBadRequest(fmt.Sprintf("negative max_epochs %d", *r.MaxEpochs))
	}
	return parseStrategy(r.Strategy)
}

// Validate is Normalize for the edges that only gate — the HTTP handler,
// the Client and the gateway Router refuse a bad request before spending a
// hop or a framework resolution on it; the Dispatcher, which needs the
// strategy, calls Normalize itself.
func (r *SelectRequest) Validate() error {
	_, err := r.Normalize()
	return err
}

// TargetResult is one target's selection outcome. Exactly one of
// Winner/Error is set; a batch reports per-target errors here instead of
// failing the whole request.
type TargetResult struct {
	Target   string   `json:"target"`
	Winner   string   `json:"winner,omitempty"`
	Members  []string `json:"members,omitempty"` // ensemble strategy only
	ValAcc   float64  `json:"val_acc,omitempty"`
	TestAcc  float64  `json:"test_acc,omitempty"`
	Epochs   float64  `json:"epochs,omitempty"`
	Recalled int      `json:"recalled,omitempty"` // two-phase/ensemble only
	// Truncated reports that this target's fine phase stopped at the
	// request budget and Winner is the best-so-far survivor; Budget then
	// carries the detail. Partial epochs spent before the stop still
	// count in Epochs and the response's TotalEpochs.
	Truncated bool          `json:"truncated,omitempty"`
	Budget    *BudgetStatus `json:"budget,omitempty"`
	Error     string        `json:"error,omitempty"`
	// ErrorCode is the machine-readable code for Error ("unknown_target",
	// "canceled", "internal", ...).
	ErrorCode string `json:"error_code,omitempty"`
	// Backend is the instance id of the backend that served this target,
	// set only by the sharding gateway (from the backend's X-Instance-Id
	// response header) so clients and tests can assert routing.
	Backend string `json:"backend,omitempty"`
	// Degraded reports that this target was served from a fingerprint-valid
	// older world snapshot because a rebuild or fetch failed: the winner is
	// real but may lag the freshest artifacts. The degraded_worlds gauge on
	// /v1/stats stays up until a clean rebuild succeeds.
	Degraded bool `json:"degraded,omitempty"`
}

// BudgetStatus is a truncated target's budget block: why the selection
// stopped and which request-level limits were in force.
type BudgetStatus struct {
	// TruncatedBy names the exhausted dimension: "max_epochs" or
	// "deadline" (the epoch cap wins when both are exhausted, because it
	// is the deterministic one).
	TruncatedBy string `json:"truncated_by"`
	// MaxEpochs / DeadlineMS echo the request's budget fields.
	MaxEpochs  *int  `json:"max_epochs,omitempty"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SelectResponse is the whole selection document.
type SelectResponse struct {
	APIVersion string         `json:"api_version"`
	Task       string         `json:"task"`
	Strategy   string         `json:"strategy"`
	Seed       uint64         `json:"seed"`
	Results    []TargetResult `json:"results"`
	// Failed counts the Results entries that carry an Error.
	Failed int `json:"failed"`
	// Truncated counts the Results entries whose selection stopped at the
	// request budget (their partial cost is still in TotalEpochs).
	Truncated int `json:"truncated,omitempty"`
	// Degraded counts the Results entries served from an older world
	// snapshot (see TargetResult.Degraded).
	Degraded int `json:"degraded,omitempty"`
	// TotalEpochs is the summed cost of this request's per-target
	// ledgers — not the service's cumulative spend, so reusing a warm
	// service never overcounts a batch.
	TotalEpochs float64 `json:"total_epochs"`
	// OfflineBuilds is the serving process's lifetime offline-build
	// count (0 on every store hit).
	OfflineBuilds int   `json:"offline_builds"`
	WallMillis    int64 `json:"wall_ms"`
}

// TargetsResponse lists a task family's target datasets in catalog order:
// the body of GET /v1/tasks/{task}/targets, answered from the registry.
type TargetsResponse struct {
	APIVersion string   `json:"api_version"`
	Task       string   `json:"task"`
	Targets    []string `json:"targets"`
}

// Stats is the serving process's observability snapshot.
type Stats struct {
	APIVersion string `json:"api_version"`
	// OfflineBuilds counts offline builds actually executed.
	OfflineBuilds int `json:"offline_builds"`
	// TotalEpochs / TrainEpochs are the cumulative cost of every
	// selection served so far.
	TotalEpochs float64 `json:"total_epochs"`
	TrainEpochs int     `json:"train_epochs"`
	// PersistDegraded reports that an artifact write failed and the
	// service is serving frameworks from memory only; PersistError
	// carries the most recent failure.
	PersistDegraded bool   `json:"persist_degraded"`
	PersistError    string `json:"persist_error,omitempty"`
	// Panics counts handler and worker panics recovered by the process
	// (each one answered as a typed internal error while serving
	// continued). On a gateway the count includes backend panics.
	Panics int64 `json:"panics,omitempty"`
	// DegradedWorlds gauges (task, seed) worlds currently served from an
	// older snapshot because their latest rebuild or fetch failed;
	// DegradedServes counts selections answered from such snapshots.
	DegradedWorlds int   `json:"degraded_worlds,omitempty"`
	DegradedServes int64 `json:"degraded_serves,omitempty"`
	// FaultFires reports fired injected faults per "site:action" when this
	// process was started with -fault-schedule; absent in production.
	FaultFires map[string]int64 `json:"fault_fires,omitempty"`
	// Cache describes the framework lifecycle cache.
	Cache CacheStats `json:"cache"`
	// Gateway is set only on a sharding gateway's stats: ring shape,
	// routing counters and per-backend health + aggregated backend stats.
	// On a gateway, the top-level counters above are fleet-wide sums.
	Gateway *GatewayStats `json:"gateway,omitempty"`
	// Admission is set when the serving process fronts /v1/select with an
	// admission controller: rate-limit/shed counters and queue gauges.
	Admission *AdmissionStats `json:"admission,omitempty"`
	// Artifacts is set when the serving process has an artifact store:
	// counters for the binary-artifact warm/fetch/build paths. On a
	// gateway they are fleet-wide sums across backends.
	Artifacts *ArtifactStats `json:"artifacts,omitempty"`
}

// The three blocks each counting package fills are that package's own
// struct, JSON tags included: there is one definition of every counter.
type (
	// CacheStats is the framework lifecycle cache's snapshot.
	CacheStats = lifecycle.Stats
	// AdmissionStats is the admission controller's snapshot.
	AdmissionStats = admission.Stats
	// ArtifactStats is the binary-artifact subsystem's snapshot.
	ArtifactStats = service.ArtifactStats
)

// Add folds one backend's document into a fleet-wide one: every counter
// and cache gauge sums, the first persist failure seen is the one
// reported, and the artifacts block appears once any backend has one.
// Gateway, Admission and FaultFires describe one process and are left to
// whoever serves the sum; APIVersion is the receiver's.
func (s *Stats) Add(b *Stats) {
	s.OfflineBuilds += b.OfflineBuilds
	s.TotalEpochs += b.TotalEpochs
	s.TrainEpochs += b.TrainEpochs
	if b.PersistDegraded && !s.PersistDegraded {
		s.PersistDegraded, s.PersistError = true, b.PersistError
	}
	s.Panics += b.Panics
	s.DegradedWorlds += b.DegradedWorlds
	s.DegradedServes += b.DegradedServes
	s.Cache.Capacity += b.Cache.Capacity
	s.Cache.Resident += b.Cache.Resident
	s.Cache.InUse += b.Cache.InUse
	s.Cache.Hits += b.Cache.Hits
	s.Cache.Misses += b.Cache.Misses
	s.Cache.Evictions += b.Cache.Evictions
	s.Cache.Builds += b.Cache.Builds
	s.Cache.BuildFailures += b.Cache.BuildFailures
	s.Cache.BuildMillis += b.Cache.BuildMillis
	if b.Artifacts != nil {
		if s.Artifacts == nil {
			s.Artifacts = &ArtifactStats{}
		}
		s.Artifacts.Hits += b.Artifacts.Hits
		s.Artifacts.Fetches += b.Artifacts.Fetches
		s.Artifacts.FetchFailures += b.Artifacts.FetchFailures
		s.Artifacts.FallbackBuilds += b.Artifacts.FallbackBuilds
	}
}

// GatewayStats is the sharding gateway's routing snapshot.
type GatewayStats struct {
	// Backends / VNodes / Replicas describe the consistent-hash ring:
	// backend count, virtual nodes per backend, and replica owners per
	// (task, seed) key.
	Backends int `json:"backends"`
	VNodes   int `json:"vnodes"`
	Replicas int `json:"replicas"`
	// Alive counts backends currently considered serving.
	Alive int `json:"alive"`
	// Failovers counts sub-requests retried on another replica after a
	// connection error or backend-side failure.
	Failovers int64 `json:"failovers"`
	// Hedges is always zero and never on the wire: bench/run.go:352 reads
	// it; a benchmark-type PR retires it with the shard.hedges row.
	Hedges int64 `json:"hedges,omitempty"`
	// BreakerSkips counts sub-request attempts not even sent because the
	// target backend's circuit breaker was open.
	BreakerSkips int64 `json:"breaker_skips,omitempty"`
	// BackendStats describes each backend in configured order.
	BackendStats []BackendStats `json:"backend_stats"`
}

// BackendStats is one backend's view from the gateway.
type BackendStats struct {
	URL string `json:"url"`
	// Instance is the backend's self-reported instance id (empty until
	// the first successful health probe).
	Instance string `json:"instance,omitempty"`
	Alive    bool   `json:"alive"`
	// DownEvents counts up→down health transitions.
	DownEvents int64 `json:"down_events"`
	// Breaker is this backend's circuit-breaker state as the gateway sees
	// it: "closed", "open" or "half-open".
	Breaker string `json:"breaker,omitempty"`
	// Requests counts sub-requests the gateway routed to this backend;
	// Failures counts the ones that errored (before any failover).
	Requests int64 `json:"requests"`
	Failures int64 `json:"failures"`
	// Stats is the backend's own /v1/stats snapshot, when reachable.
	Stats *Stats `json:"stats,omitempty"`
}

// Health is the /v1/healthz body.
type Health struct {
	Status string `json:"status"`
	// Instance identifies the serving process, mirroring the
	// X-Instance-Id response header; empty when the server has no
	// configured instance id.
	Instance string `json:"instance,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// RetryAfterMS, when positive, tells the client when a retry may
	// succeed (rate_limited / overloaded / unavailable responses). The
	// same hint rides the Retry-After header, rounded up to seconds.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// parseStrategy validates a wire strategy name, mapping failures to
// ErrBadRequest.
func parseStrategy(s string) (core.Strategy, error) {
	strat, err := core.ParseStrategy(s)
	if err != nil {
		return "", errBadRequest(err.Error())
	}
	return strat, nil
}
