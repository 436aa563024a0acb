package lifecycle

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twophase/internal/core"
	"twophase/internal/datahub"
)

// fakeBuilder counts builds per key and returns distinct fake frameworks
// stamped with their key, so tests can verify a handle never observes a
// framework built for another key.
type fakeBuilder struct {
	mu     sync.Mutex
	counts map[Key]int
	delay  time.Duration
	fail   func(Key) error // optional per-key failure injection
}

func newFakeBuilder() *fakeBuilder { return &fakeBuilder{counts: map[Key]int{}} }

func (b *fakeBuilder) build(_ context.Context, key Key) (*core.Framework, error) {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.mu.Lock()
	b.counts[key]++
	b.mu.Unlock()
	if b.fail != nil {
		if err := b.fail(key); err != nil {
			return nil, err
		}
	}
	return &core.Framework{Task: key.Task, Seed: key.Seed}, nil
}

func (b *fakeBuilder) count(key Key) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts[key]
}

func newTestManager(t *testing.T, capacity int, b *fakeBuilder) *Manager {
	t.Helper()
	m, err := New(Options{Capacity: capacity, Build: b.build})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustGet(t *testing.T, m *Manager, key Key) *Handle {
	t.Helper()
	h, err := m.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if h.Framework().Task != key.Task || h.Framework().Seed != key.Seed {
		t.Fatalf("handle for %v holds framework (%s, %d)", key, h.Framework().Task, h.Framework().Seed)
	}
	return h
}

var (
	keyA = Key{Task: datahub.TaskNLP, Seed: 1}
	keyB = Key{Task: datahub.TaskNLP, Seed: 2}
	keyC = Key{Task: datahub.TaskCV, Seed: 1}
)

// warmAll is the serving layer's warmup shape — one concurrent
// Get/Release lease per key — driven directly against the manager.
func warmAll(m *Manager, keys []Key) error {
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k Key) {
			defer wg.Done()
			h, err := m.Get(context.Background(), k)
			if err != nil {
				errs[i] = fmt.Errorf("warm %s: %w", k, err)
				return
			}
			h.Release()
		}(i, k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func TestSingleflight(t *testing.T) {
	b := newFakeBuilder()
	b.delay = 5 * time.Millisecond
	m := newTestManager(t, 0, b)
	const callers = 16
	fws := make([]*core.Framework, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := m.Get(context.Background(), keyA)
			if err != nil {
				t.Error(err)
				return
			}
			fws[i] = h.Framework()
			h.Release()
		}(i)
	}
	wg.Wait()
	if got := b.count(keyA); got != 1 {
		t.Fatalf("%d builds for %d concurrent callers, want 1", got, callers)
	}
	for i := 1; i < callers; i++ {
		if fws[i] != fws[0] {
			t.Fatalf("caller %d got a different framework instance", i)
		}
	}
	st := m.Stats()
	if st.Misses != 1 || st.Hits != callers-1 || st.Builds != 1 {
		t.Fatalf("stats after singleflight: %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	b := newFakeBuilder()
	m := newTestManager(t, 2, b)
	mustGet(t, m, keyA).Release()
	mustGet(t, m, keyB).Release()
	// Touch A so B becomes least recently used.
	mustGet(t, m, keyA).Release()
	// C overflows the capacity-2 cache: B (LRU) must go, A must stay.
	mustGet(t, m, keyC).Release()
	if st := m.Stats(); st.Resident != 2 || st.Evictions != 1 {
		t.Fatalf("stats after overflow: %+v", st)
	}
	mustGet(t, m, keyA).Release()
	if got := b.count(keyA); got != 1 {
		t.Fatalf("A was evicted (built %d times); LRU order ignored the touch", got)
	}
	mustGet(t, m, keyB).Release()
	if got := b.count(keyB); got != 2 {
		t.Fatalf("B built %d times, want 2 (evicted then rebuilt)", got)
	}
}

// TestEvictionKeepsInUseFrameworkAlive is the refcount guarantee: evicting
// an entry whose handle is still held must not invalidate that handle.
func TestEvictionKeepsInUseFrameworkAlive(t *testing.T) {
	b := newFakeBuilder()
	m := newTestManager(t, 1, b)
	hA := mustGet(t, m, keyA)
	fwA := hA.Framework()

	// B evicts A from the size-1 cache while A is in use.
	hB := mustGet(t, m, keyB)
	st := m.Stats()
	if st.Resident != 1 || st.Evictions != 1 {
		t.Fatalf("stats after in-use eviction: %+v", st)
	}
	if hA.Framework() != fwA || hA.Framework().Seed != keyA.Seed {
		t.Fatal("eviction tore the framework out from under an outstanding handle")
	}
	hA.Release()
	hA.Release() // idempotent
	hB.Release()

	// A fresh Get for A rebuilds it (the old entry is gone for good).
	mustGet(t, m, keyA).Release()
	if got := b.count(keyA); got != 2 {
		t.Fatalf("A built %d times, want 2", got)
	}
}

func TestBuildErrorNotCached(t *testing.T) {
	b := newFakeBuilder()
	boom := errors.New("boom")
	var failed atomic.Bool
	b.fail = func(Key) error {
		if failed.CompareAndSwap(false, true) {
			return boom
		}
		return nil
	}
	m := newTestManager(t, 0, b)
	if _, err := m.Get(context.Background(), keyA); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := m.Stats(); st.Resident != 0 || st.BuildFailures != 1 {
		t.Fatalf("failed build left residue: %+v", st)
	}
	mustGet(t, m, keyA).Release()
	if got := b.count(keyA); got != 2 {
		t.Fatalf("retry after failure built %d times total, want 2", got)
	}
}

// TestWaiterCancel: a waiter's dead context releases only that waiter; the
// build completes and serves everyone else.
func TestWaiterCancel(t *testing.T) {
	gate := make(chan struct{})
	m, err := New(Options{Build: func(_ context.Context, key Key) (*core.Framework, error) {
		<-gate
		return &core.Framework{Task: key.Task, Seed: key.Seed}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan *Handle)
	go func() {
		h, err := m.Get(context.Background(), keyA)
		if err != nil {
			t.Error(err)
		}
		first <- h
	}()
	// Wait until the builder owns the cell, then join as a waiter with a
	// context we cancel mid-wait.
	for m.Stats().Resident == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error)
	go func() {
		_, err := m.Get(ctx, keyA)
		waiterErr <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v", err)
	}
	close(gate)
	h := <-first
	if h.Framework().Seed != keyA.Seed {
		t.Fatal("builder's handle corrupted by canceled waiter")
	}
	h.Release()
	if st := m.Stats(); st.InUse != 0 {
		t.Fatalf("refs leaked: %+v", st)
	}
}

// TestWarmCachedHitOnDeadContext: once an entry is built, a Get with an
// already-canceled context still serves it (the selection layer does its
// own cancellation checks) instead of flaking.
func TestWarmCachedHitOnDeadContext(t *testing.T) {
	m := newTestManager(t, 0, newFakeBuilder())
	mustGet(t, m, keyA).Release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h, err := m.Get(ctx, keyA)
	if err != nil {
		t.Fatalf("warm hit failed on dead context: %v", err)
	}
	h.Release()
}

func TestWarm(t *testing.T) {
	b := newFakeBuilder()
	m := newTestManager(t, 2, b)
	keys := []Key{keyA, keyB, keyC}
	if err := warmAll(m, keys); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Builds != 3 {
		t.Fatalf("warm ran %d builds, want 3", st.Builds)
	}
	if st.Resident != 2 || st.Evictions != 1 {
		t.Fatalf("warming 3 keys into capacity 2: %+v", st)
	}
	if st.InUse != 0 {
		t.Fatalf("warm leaked handles: %+v", st)
	}

	b.fail = func(k Key) error {
		if k == keyC {
			return fmt.Errorf("no such world")
		}
		return nil
	}
	// keyC may or may not be resident; force a rebuild path by using a
	// fresh manager so the failure is observable.
	m2 := newTestManager(t, 2, b)
	if err := warmAll(m2, keys); err == nil {
		t.Fatal("warm swallowed a build failure")
	}
}

// TestConcurrencyHammerSize1 hammers a size-1 cache with concurrent
// Get/Release across three keys plus concurrent warmups — run under -race
// in CI. It proves (a) a handle always matches its key even when its entry
// is evicted mid-use, (b) no refs leak, and (c) the resident set stays
// within capacity.
func TestConcurrencyHammerSize1(t *testing.T) {
	b := newFakeBuilder()
	m := newTestManager(t, 1, b)
	keys := []Key{keyA, keyB, keyC}
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := keys[(w+i)%len(keys)]
				h, err := m.Get(context.Background(), key)
				if err != nil {
					t.Error(err)
					return
				}
				fw := h.Framework()
				if fw.Task != key.Task || fw.Seed != key.Seed {
					t.Errorf("handle for %v holds (%s, %d)", key, fw.Task, fw.Seed)
				}
				if i%7 == 0 {
					time.Sleep(time.Microsecond) // hold across evictions sometimes
				}
				h.Release()
			}
		}(w)
	}
	// Concurrent warmups compete with the workers for the single slot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := warmAll(m, keys); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	st := m.Stats()
	if st.Resident > 1 {
		t.Fatalf("size-1 cache holds %d entries", st.Resident)
	}
	if st.InUse != 0 {
		t.Fatalf("refs leaked after hammer: %+v", st)
	}
	total := int64(workers*iters + 20*len(keys))
	if st.Hits+st.Misses != total {
		t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, total)
	}
	// Every miss's build finished, and (InUse above) no resident entry
	// holds a ref.
	if st.Builds != st.Misses || st.BuildFailures != 0 {
		t.Fatalf("build accounting off: %+v", st)
	}
}

// demoted builds A and then B into a size-1 cache, leaving B resident and
// A demoted to a fallback. It returns A's framework.
func demoted(t *testing.T, m *Manager) *core.Framework {
	t.Helper()
	hA := mustGet(t, m, keyA)
	fwA := hA.Framework()
	hA.Release()
	mustGet(t, m, keyB).Release()
	if st := m.Stats(); st.Resident != 1 || st.Evictions != 1 {
		t.Fatalf("stats after evicting A: %+v", st)
	}
	return fwA
}

// TestEvictionDemotesToFallback: an evicted world keeps its framework. A
// Get on it rebuilds (a miss); when that rebuild fails the caller is
// served the very framework built before the eviction, marked degraded.
func TestEvictionDemotesToFallback(t *testing.T) {
	b := newFakeBuilder()
	m := newTestManager(t, 1, b)
	fwA := demoted(t, m)
	boom := errors.New("boom")
	b.fail = func(Key) error { return boom }
	h, err := m.Get(context.Background(), keyA)
	if err != nil {
		t.Fatalf("demoted world refused instead of served from its fallback: %v", err)
	}
	defer h.Release()
	if h.Framework() != fwA || !h.Degraded() {
		t.Fatalf("fallback handle: framework kept %v, degraded %v", h.Framework() == fwA, h.Degraded())
	}
	if got := b.count(keyA); got != 2 {
		t.Fatalf("A built %d times, want 2 (build, failed rebuild)", got)
	}
	if st := m.Stats(); st.Misses != 3 || st.Builds != 2 || st.BuildFailures != 1 {
		t.Fatalf("a failed rebuild is a miss and a build failure: %+v", st)
	}
}

// TestFailedRebuildServesEveryWaiterDegraded: every caller sharing a failed
// rebuild's singleflight cell gets a Degraded handle on the fallback; the
// entry is not promoted (B stays the one resident world, the next Get on A
// rebuilds again) and the degraded gauge reads 1 — also while that next
// rebuild is in flight — until a clean rebuild brings it back to 0.
func TestFailedRebuildServesEveryWaiterDegraded(t *testing.T) {
	b := newFakeBuilder()
	m := newTestManager(t, 1, b)
	fwA := demoted(t, m)
	gate := make(chan struct{})
	boom := errors.New("boom")
	b.fail = func(k Key) error {
		if k != keyA {
			return nil
		}
		<-gate
		return boom
	}
	const callers = 6
	before := m.Stats()
	handles := make(chan *Handle, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := m.Get(context.Background(), keyA)
			if err != nil {
				t.Error(err)
				return
			}
			handles <- h
		}()
	}
	// One caller builds, the rest join its cell as hits.
	for st := m.Stats(); st.Hits != before.Hits+callers-1 || st.Misses != before.Misses+1; st = m.Stats() {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(handles)
	for h := range handles {
		if h.Framework() != fwA || !h.Degraded() {
			t.Fatalf("waiter handle: framework kept %v, degraded %v", h.Framework() == fwA, h.Degraded())
		}
		h.Release()
	}
	if got := b.count(keyA); got != 2 {
		t.Fatalf("A built %d times for %d callers, want 2 (one shared rebuild)", got, callers)
	}
	st := m.Stats()
	if st.Resident != 1 || st.Evictions != 1 || st.BuildFailures != 1 || st.InUse != 0 {
		t.Fatalf("failed rebuild promoted A or demoted B: %+v", st)
	}
	if worlds, serves := m.Degraded(); worlds != 1 || serves != 1 {
		t.Fatalf("degraded gauges = worlds %d serves %d, want 1 / 1", worlds, serves)
	}
	mustGet(t, m, keyB).Release() // still resident: a hit, no build
	if got := b.count(keyB); got != 1 {
		t.Fatalf("B built %d times, want 1", got)
	}

	// The next Get on A rebuilds; the world stays degraded until it lands.
	gate = make(chan struct{})
	b.fail = func(k Key) error {
		if k == keyA {
			<-gate
		}
		return nil
	}
	healed := make(chan *Handle)
	go func() {
		h, err := m.Get(context.Background(), keyA)
		if err != nil {
			t.Error(err)
		}
		healed <- h
	}()
	for m.Stats().Misses != st.Misses+1 {
		time.Sleep(time.Millisecond)
	}
	if worlds, _ := m.Degraded(); worlds != 1 {
		t.Fatalf("degraded world gauge dropped to %d while its rebuild is in flight", worlds)
	}
	close(gate)
	h := <-healed
	if h == nil {
		t.FailNow()
	}
	if h.Framework() == fwA || h.Degraded() {
		t.Fatalf("clean rebuild served the fallback (degraded %v)", h.Degraded())
	}
	h.Release()
	if worlds, serves := m.Degraded(); worlds != 0 || serves != 1 {
		t.Fatalf("after a clean rebuild: degraded gauges = worlds %d serves %d, want 0 / 1", worlds, serves)
	}
	if st := m.Stats(); st.Resident != 1 || st.Evictions != 2 {
		t.Fatalf("clean rebuild did not promote A over B: %+v", st)
	}
}

// TestFallbackWindowIsBounded: ten worlds through a size-1 cache retain
// max(8, 2·1) = 8 frameworks — one resident, seven fallbacks — and the
// least recently used go first: A, rebuilt after the first eight, outlives
// the worlds built after it.
func TestFallbackWindowIsBounded(t *testing.T) {
	b := newFakeBuilder()
	m := newTestManager(t, 1, b)
	keys := make([]Key, 10)
	for i := range keys {
		keys[i] = Key{Task: datahub.TaskNLP, Seed: uint64(100 + i)}
	}
	for _, k := range keys[:8] {
		mustGet(t, m, k).Release()
	}
	mustGet(t, m, keys[0]).Release() // promote the oldest back to resident
	for _, k := range keys[8:] {
		mustGet(t, m, k).Release()
	}
	// The list now holds keys[0] and keys[3:]: keys[1] and keys[2] were
	// the least recently used fallbacks when it passed 8 entries.
	b.fail = func(Key) error { return errors.New("boom") }
	retained := 0
	for i, k := range keys {
		h, err := m.Get(context.Background(), k)
		if dropped := i == 1 || i == 2; dropped != (err != nil) {
			t.Fatalf("world %d: err %v, dropped %v", i, err, dropped)
		}
		if err == nil {
			retained++
			h.Release()
		}
	}
	if retained != 8 {
		t.Fatalf("size-1 cache retained %d frameworks over 10 worlds, want 8", retained)
	}
}

// TestUnboundedCacheHasNoFallback: capacity 0 never evicts, so every built
// world stays resident, nothing is ever degraded, and a failed build
// returns its error.
func TestUnboundedCacheHasNoFallback(t *testing.T) {
	b := newFakeBuilder()
	m := newTestManager(t, 0, b)
	for seed := uint64(0); seed < 10; seed++ {
		mustGet(t, m, Key{Task: datahub.TaskNLP, Seed: seed}).Release()
	}
	boom := errors.New("boom")
	b.fail = func(Key) error { return boom }
	if _, err := m.Get(context.Background(), keyC); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := m.Stats(); st.Resident != 10 || st.Evictions != 0 || st.BuildFailures != 1 {
		t.Fatalf("unbounded cache after 10 worlds and a failure: %+v", st)
	}
	if worlds, serves := m.Degraded(); worlds != 0 || serves != 0 {
		t.Fatalf("unbounded cache degraded: worlds %d serves %d", worlds, serves)
	}
}

// TestDegradedServeEvent: each failed rebuild answered from a fallback is
// one lifecycle.degraded_serve record naming the world and the error,
// however many callers share the rebuild.
func TestDegradedServeEvent(t *testing.T) {
	prev := slog.Default()
	t.Cleanup(func() { slog.SetDefault(prev) })
	var out bytes.Buffer
	slog.SetDefault(slog.New(slog.NewJSONHandler(&out, nil)))

	b := newFakeBuilder()
	m := newTestManager(t, 1, b)
	demoted(t, m)
	b.fail = func(k Key) error {
		if k == keyA {
			return errors.New("store: read matrices/nlp-seed1.bin: injected")
		}
		return nil
	}
	for i := 0; i < 2; i++ {
		if err := warmAll(m, []Key{keyA, keyA, keyA}); err != nil {
			t.Fatal(err)
		}
	}
	_, serves := m.Degraded()
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log record is not one JSON object: %v\n%s", err, line)
		}
		if rec["msg"] == "lifecycle.degraded_serve" {
			recs = append(recs, rec)
		}
	}
	if len(recs) < 2 || int64(len(recs)) != serves {
		t.Fatalf("%d lifecycle.degraded_serve records for %d degraded serves", len(recs), serves)
	}
	for _, rec := range recs {
		if rec["world"] != keyA.String() || rec["err"] != "store: read matrices/nlp-seed1.bin: injected" {
			t.Fatalf("lifecycle.degraded_serve record %v", rec)
		}
	}
}
