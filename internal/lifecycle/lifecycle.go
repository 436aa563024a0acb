// Package lifecycle manages the built frameworks of the serving layer: one
// LRU list keyed by (task, seed) with singleflight build coalescing,
// refcounted handles so eviction can never tear a framework out from under
// an in-flight selection, and aggregate hit/miss/evict/build-duration
// stats. The serving layer builds its warmup API on Get/Release, one
// admission-checked lease per configured world, before a server reports
// ready.
//
// The list holds every world in one of two states. The first Capacity
// entries are resident. An evicted entry is demoted, not dropped: it keeps
// its framework as that world's fallback until the list passes
// max(8, 2·Capacity) entries, least recently used first. A Get on a
// fallback world rebuilds it and promotes it on success. If the rebuild
// fails, every waiter gets a handle on the fallback with Degraded() true —
// a transient storage or build fault costs freshness, not availability —
// and the entry stays a fallback, so nothing degraded is ever cached and
// the next Get retries the rebuild. Capacity 0 never evicts, so it never
// holds a fallback. The paper's offline artifacts are immutable once
// built, so a fallback, like every handle issued before an eviction, still
// computes bit-identical selections.
//
// Every finished build is one "lifecycle.built" log record (world, took,
// err), every capacity eviction one "lifecycle.evicted" record (world),
// and every failed rebuild answered from a fallback one
// "lifecycle.degraded_serve" record (world, err).
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
	// demoted to fallbacks beyond it. 0 or negative means unbounded.
	Capacity int
	// Build resolves a missing entry. Required.
	Build BuildFunc
}

// entry is one cell of the list. A cell is created in the "building" state
// with done open; the builder sets fw, err and degraded and then closes
// done exactly once, after which those three never change. refs counts
// issued-but-unreleased handles plus waiters; refs, fallback and elem are
// guarded by the manager's mutex.
type entry struct {
	key  Key
	done chan struct{}
	fw   *core.Framework
	err  error
	// degraded marks a world whose latest rebuild failed: while building
	// it carries the state of the fallback being rebuilt, once done it
	// says fw is that fallback.
	degraded bool

	refs     int
	fallback bool // demoted: not resident, fw kept for degraded serving
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

	mu       sync.Mutex
	entries  map[Key]*entry
	lru      *list.List // front = most recently used *entry
	resident int        // entries that are not fallbacks

	hits, misses, evictions, builds, buildFailures int64
	degradedServes                                 int64
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

// Degraded reports that the framework is the world's fallback, served
// because its rebuild failed.
func (h *Handle) Degraded() bool { return h.entry.degraded }

// Release returns the lease. After the last release of a dropped entry
// the framework is unreachable and reclaimed by the garbage collector.
func (h *Handle) Release() {
	h.once.Do(func() {
		h.mgr.mu.Lock()
		h.entry.refs--
		h.mgr.mu.Unlock()
	})
}

// Get returns a handle on the framework for key, building it on first use
// and rebuilding it when it was demoted to a fallback. Concurrent callers
// for the same key share one build. The context bounds only this caller's
// wait on someone else's in-flight build; the build itself always runs to
// completion because its result serves every later request. A failed
// build is not cached — the next caller retries — and is answered from the
// world's fallback when it has one.
func (m *Manager) Get(ctx context.Context, key Key) (*Handle, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok && !e.fallback {
		e.refs++
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
	var fallback *core.Framework
	if old, ok := m.entries[key]; ok {
		// A demoted world: the rebuild takes over its cell, keeping its
		// framework to serve if the rebuild fails.
		fallback, e.degraded = old.fw, old.degraded
		m.lru.Remove(old.elem)
	}
	e.elem = m.lru.PushFront(e)
	m.entries[key] = e
	m.resident++
	m.misses++
	m.mu.Unlock()

	start := time.Now()
	fw, err := m.runBuild(ctx, key)
	dur := time.Since(start)
	slog.Info("lifecycle.built", slog.String("world", key.String()), slog.Duration("took", dur), slog.Any("err", err))

	m.mu.Lock()
	m.buildTotal += dur
	switch {
	case err == nil:
		m.builds++
		e.fw, e.degraded = fw, false
		m.evictOverflowLocked()
	case fallback != nil:
		m.buildFailures++
		m.degradedServes++
		e.fw, e.degraded, e.fallback = fallback, true, true
		m.resident--
		slog.Warn("lifecycle.degraded_serve", slog.String("world", key.String()), slog.Any("err", err))
	default:
		m.buildFailures++
		// Remove the poisoned cell under the same lock waiters join
		// through, so no new waiter can attach; existing waiters wake on
		// close(done) below and observe the error.
		e.err = err
		m.removeLocked(e)
		e.refs--
		m.mu.Unlock()
		close(e.done)
		return nil, err
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

// removeLocked detaches an entry from the map and the list.
func (m *Manager) removeLocked(e *entry) {
	delete(m.entries, e.key)
	m.lru.Remove(e.elem)
	if !e.fallback {
		m.resident--
	}
}

// evictOverflowLocked demotes the least recently used resident entries
// beyond capacity to fallbacks, then drops the least recently used
// fallbacks while the list is longer than max(8, 2·capacity). Entries
// still building are skipped — evicting one would strand the waiters
// sharing its singleflight cell — but in-use built entries are fair game:
// their handles stay valid, only the resident slot is reclaimed.
func (m *Manager) evictOverflowLocked() {
	if m.capacity <= 0 {
		return
	}
	for m.resident > m.capacity {
		victim := m.oldestLocked(func(e *entry) bool { return !e.fallback && e.built() })
		if victim == nil {
			break // everything over capacity is still building
		}
		victim.fallback = true
		m.resident--
		m.evictions++
		slog.Info("lifecycle.evicted", slog.String("world", victim.key.String()))
	}
	for m.lru.Len() > max(8, 2*m.capacity) {
		victim := m.oldestLocked(func(e *entry) bool { return e.fallback })
		if victim == nil {
			return
		}
		m.removeLocked(victim)
	}
}

// oldestLocked returns the least recently used entry that ok accepts.
func (m *Manager) oldestLocked(ok func(*entry) bool) *entry {
	for el := m.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*entry); ok(e) {
			return e
		}
	}
	return nil
}

// Stats is the manager's aggregate observability snapshot, and the "cache"
// block of /v1/stats as it stands: the tags are the wire names.
type Stats struct {
	// Capacity is the configured bound on resident frameworks
	// (0 = unbounded).
	Capacity int `json:"capacity"`
	// Resident counts resident entries, including in-flight builds;
	// InUse counts those with at least one outstanding handle. Neither
	// counts fallbacks.
	Resident int `json:"resident"`
	InUse    int `json:"in_use"`
	// Hits counts Gets served from a resident entry (including joins on an
	// in-flight build); Misses counts Gets that started a build;
	// Evictions counts entries demoted by the capacity bound.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Builds and BuildFailures count completed BuildFunc runs (store
	// loads and offline builds alike; a failed rebuild answered from a
	// fallback is a failure); BuildMillis is their cumulative wall time.
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
		Resident:      m.resident,
		Hits:          m.hits,
		Misses:        m.misses,
		Evictions:     m.evictions,
		Builds:        m.builds,
		BuildFailures: m.buildFailures,
		BuildMillis:   m.buildTotal.Milliseconds(),
	}
	for el := m.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*entry); !e.fallback && e.refs > 0 {
			s.InUse++
		}
	}
	return s
}

// Degraded reports how many worlds are served from their fallback because
// their latest rebuild failed (each counts until a clean rebuild), and how
// many failed rebuilds were answered that way.
func (m *Manager) Degraded() (worlds int, serves int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for el := m.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*entry).degraded {
			worlds++
		}
	}
	return worlds, m.degradedServes
}
