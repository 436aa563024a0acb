// Package lifecycle manages the resident set of built frameworks for the
// serving layer: a capacity-bounded LRU cache keyed by (task, seed) with
// singleflight build coalescing, refcounted handles so eviction can never
// tear a framework out from under an in-flight selection, and per-entry
// and aggregate hit/miss/evict/build-duration stats. The serving layer
// builds its warmup API on Get/Release, one admission-checked lease per
// configured world, before a server reports ready.
//
// Eviction is reclamation by reference counting: an evicted entry leaves
// the cache immediately (so the resident set stays bounded and future
// requests rebuild or reload it), but every Handle issued before the
// eviction keeps its framework fully usable until released — the paper's
// offline artifacts are immutable once built, so late users of an evicted
// framework still compute bit-identical selections.
//
// Every finished build is one "lifecycle.built" log record (world, took,
// err) and every capacity eviction one "lifecycle.evicted" record (world).
package lifecycle

import (
	"container/list"
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"

	"twophase/internal/core"
)

// Key identifies one framework world: a task family built at a seed.
type Key struct {
	Task string
	Seed uint64
}

// String renders the key the way the artifact store names its files.
func (k Key) String() string { return fmt.Sprintf("%s-seed%d", k.Task, k.Seed) }

// BuildFunc resolves the framework for a key — typically by loading
// persisted stage artifacts and falling back to the offline build. The
// manager guarantees at most one concurrent call per key and never
// propagates a single caller's cancellation into the build (its result
// serves every later request), passing a context stripped of cancellation.
type BuildFunc func(ctx context.Context, key Key) (*core.Framework, error)

// Options configures a Manager.
type Options struct {
	// Capacity bounds how many frameworks stay resident; LRU entries are
	// evicted beyond it. 0 or negative means unbounded.
	Capacity int
	// Build resolves a missing entry. Required.
	Build BuildFunc
}

// entry is one cache cell. A cell is created in the "building" state with
// done open; the builder closes done exactly once with fw or err set.
// refs counts issued-but-unreleased handles plus waiters; all mutable
// fields besides fw/err/done are guarded by the manager's mutex.
type entry struct {
	key  Key
	done chan struct{}
	fw   *core.Framework
	err  error

	refs     int
	evicted  bool
	hits     int64
	buildDur time.Duration
	elem     *list.Element
}

func (e *entry) built() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Manager is the framework lifecycle manager. Safe for concurrent use.
type Manager struct {
	build    BuildFunc
	capacity int

	mu      sync.Mutex
	entries map[Key]*entry
	lru     *list.List // front = most recently used *entry

	hits, misses, evictions, builds, buildFailures int64
	buildTotal                                     time.Duration
}

// New creates a Manager.
func New(opts Options) (*Manager, error) {
	if opts.Build == nil {
		return nil, fmt.Errorf("lifecycle: nil build function")
	}
	return &Manager{
		build:    opts.Build,
		capacity: opts.Capacity,
		entries:  make(map[Key]*entry),
		lru:      list.New(),
	}, nil
}

// Handle is a leased reference to a built framework. The framework stays
// valid — even across an eviction — until Release, which is idempotent.
type Handle struct {
	mgr   *Manager
	entry *entry
	once  sync.Once
}

// Framework returns the leased framework.
func (h *Handle) Framework() *core.Framework { return h.entry.fw }

// Release returns the lease. After the last release of an evicted entry
// the framework is unreachable and reclaimed by the garbage collector.
func (h *Handle) Release() {
	h.once.Do(func() {
		h.mgr.mu.Lock()
		h.entry.refs--
		h.mgr.mu.Unlock()
	})
}

// Get returns a handle on the framework for key, building it on first use.
// Concurrent callers for the same key share one build. The context bounds
// only this caller's wait on someone else's in-flight build; the build
// itself always runs to completion because its result serves every later
// request. A failed build is not cached — the next caller retries.
func (m *Manager) Get(ctx context.Context, key Key) (*Handle, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		e.refs++
		e.hits++
		m.hits++
		m.lru.MoveToFront(e.elem)
		m.mu.Unlock()
		// Prefer a completed build over an already-dead context so a warm
		// hit never flakes into a cancellation.
		select {
		case <-e.done:
		default:
			select {
			case <-e.done:
			case <-ctx.Done():
				m.release(e)
				return nil, ctx.Err()
			}
		}
		if e.err != nil {
			m.release(e)
			return nil, e.err
		}
		return &Handle{mgr: m, entry: e}, nil
	}
	e := &entry{key: key, done: make(chan struct{}), refs: 1}
	e.elem = m.lru.PushFront(e)
	m.entries[key] = e
	m.misses++
	m.mu.Unlock()

	start := time.Now()
	fw, err := m.runBuild(ctx, key)
	dur := time.Since(start)
	e.fw, e.err = fw, err
	slog.Info("lifecycle.built", slog.String("world", key.String()), slog.Duration("took", dur), slog.Any("err", err))

	m.mu.Lock()
	e.buildDur = dur
	m.buildTotal += dur
	if err != nil {
		m.buildFailures++
		// Remove the poisoned cell under the same lock waiters join
		// through, so no new waiter can attach; existing waiters wake on
		// close(done) below and observe the error.
		m.removeLocked(e)
		e.refs--
		m.mu.Unlock()
		close(e.done)
		return nil, err
	}
	m.builds++
	if fw.Degraded {
		// A degraded framework (served from an older snapshot because the
		// clean resolution failed) is valid for this request's waiters but
		// must not stick in the cache: the next Get has to retry a clean
		// rebuild, or the world would stay degraded forever.
		m.removeLocked(e)
	} else {
		m.evictOverflowLocked()
	}
	m.mu.Unlock()
	close(e.done)
	return &Handle{mgr: m, entry: e}, nil
}

// runBuild invokes the BuildFunc with cancellation stripped (the build's
// result serves every later request, not just the caller that started
// it) and converts a panicking build into an error: without the recover,
// the singleflight cell's done channel would never close and every waiter
// on the key would hang forever.
func (m *Manager) runBuild(ctx context.Context, key Key) (fw *core.Framework, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			slog.Error("lifecycle.build_panic", slog.String("world", key.String()),
				slog.Any("err", rec), slog.String("stack", string(debug.Stack())))
			fw, err = nil, fmt.Errorf("lifecycle: build %s panicked: %v", key, rec)
		}
	}()
	return m.build(context.WithoutCancel(ctx), key)
}

func (m *Manager) release(e *entry) {
	m.mu.Lock()
	e.refs--
	m.mu.Unlock()
}

// removeLocked detaches an entry from the map and LRU list.
func (m *Manager) removeLocked(e *entry) {
	if e.evicted {
		return
	}
	delete(m.entries, e.key)
	m.lru.Remove(e.elem)
	e.evicted = true
}

// evictOverflowLocked trims the cache back to capacity, oldest first.
// Entries still building are skipped — evicting one would strand the
// waiters sharing its singleflight cell — but in-use built entries are
// fair game: their handles stay valid, only the cache slot is reclaimed.
func (m *Manager) evictOverflowLocked() {
	if m.capacity <= 0 {
		return
	}
	for m.lru.Len() > m.capacity {
		var victim *entry
		for el := m.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*entry); e.built() {
				victim = e
				break
			}
		}
		if victim == nil {
			return // everything over capacity is still building
		}
		m.removeLocked(victim)
		m.evictions++
		slog.Info("lifecycle.evicted", slog.String("world", victim.key.String()))
	}
}

// Stats is the manager's aggregate observability snapshot, and the "cache"
// block of /v1/stats as it stands: the tags are the wire names.
type Stats struct {
	// Capacity is the configured bound on resident frameworks
	// (0 = unbounded).
	Capacity int `json:"capacity"`
	// Resident counts cached entries, including in-flight builds; InUse
	// counts those with at least one outstanding handle.
	Resident int `json:"resident"`
	InUse    int `json:"in_use"`
	// Hits counts Gets served from a resident entry (including joins on an
	// in-flight build); Misses counts Gets that started a build;
	// Evictions counts entries removed by the capacity bound.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Builds and BuildFailures count completed BuildFunc runs (store
	// loads and offline builds alike); BuildMillis is their cumulative
	// wall time.
	Builds        int64 `json:"builds"`
	BuildFailures int64 `json:"build_failures"`
	BuildMillis   int64 `json:"build_ms"`
}

// Stats snapshots the aggregate counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Capacity:      m.capacity,
		Resident:      m.lru.Len(),
		Hits:          m.hits,
		Misses:        m.misses,
		Evictions:     m.evictions,
		Builds:        m.builds,
		BuildFailures: m.buildFailures,
		BuildMillis:   m.buildTotal.Milliseconds(),
	}
	for el := m.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*entry).refs > 0 {
			s.InUse++
		}
	}
	return s
}

// EntryStats describes one resident cache entry.
type EntryStats struct {
	Key Key
	// Hits counts Gets served by this entry since it was created.
	Hits int64
	// Refs counts outstanding handles (and waiters) on the entry.
	Refs int
	// Built is false while the entry's offline build is still in flight.
	Built bool
	// BuildDuration is the wall time of the entry's build (zero until it
	// completes).
	BuildDuration time.Duration
}

// Entries snapshots the resident entries, most recently used first.
func (m *Manager) Entries() []EntryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]EntryStats, 0, m.lru.Len())
	for el := m.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, EntryStats{
			Key:           e.key,
			Hits:          e.hits,
			Refs:          e.refs,
			Built:         e.built(),
			BuildDuration: e.buildDur,
		})
	}
	return out
}

// Len reports how many entries are resident.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}
