// Package breaker implements a per-peer circuit breaker shared by the
// shard Router and the artifact fetcher, so a hanging or flapping peer is
// cut off before its per-attempt timeouts burn the whole request deadline.
//
// Each breaker walks the classic three-state machine:
//
//	Closed    — traffic flows; FailureThreshold consecutive failures open it.
//	Open      — all traffic is skipped until Cooldown elapses.
//	Half-open — after cooldown, a seeded coin admits a fraction of probes
//	            (HalfOpenProb); one success closes the breaker, one failure
//	            re-opens it and restarts the cooldown.
//
// Half-open admission is probabilistic rather than single-token so several
// concurrent callers sharing one breaker don't all pile onto a barely-
// recovered peer at once, and seeded so chaos runs are reproducible.
package breaker

import (
	"sync"
	"time"
)

// State is a breaker's position in the closed/open/half-open machine.
type State uint8

const (
	Closed State = iota
	Open
	HalfOpen
)

// String renders the state for stats documents.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Options tunes a breaker Set. The zero value selects the defaults.
type Options struct {
	// FailureThreshold is how many consecutive failures open a closed
	// breaker. Default 5.
	FailureThreshold int
	// Cooldown is how long an open breaker rejects before going
	// half-open. Default 2s.
	Cooldown time.Duration
	// HalfOpenProb is the probability a half-open breaker admits a
	// request. Default 0.5.
	HalfOpenProb float64
	// Seed drives the half-open admission coin, so a seeded chaos run
	// admits the same probe sequence every time.
	Seed uint64
	// now overrides the clock in tests.
	now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 2 * time.Second
	}
	if o.HalfOpenProb <= 0 || o.HalfOpenProb > 1 {
		o.HalfOpenProb = 0.5
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// Breaker is one peer's circuit. All methods are safe for concurrent use.
type Breaker struct {
	opts Options

	mu       sync.Mutex
	state    State
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	rng      uint64    // xorshift state for half-open admits
}

func newBreaker(key string, opts Options) *Breaker {
	// Per-key RNG stream: the same (seed, peer) admits the same probe
	// sequence run after run.
	s := opts.Seed ^ fnv64(key)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &Breaker{opts: opts, rng: s}
}

// Allow reports whether a request may proceed, advancing open→half-open
// when the cooldown has elapsed.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.opts.now().Sub(b.openedAt) < b.opts.Cooldown {
			return false
		}
		b.state = HalfOpen
		fallthrough
	case HalfOpen:
		// xorshift64: cheap, deterministic per breaker.
		x := b.rng
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b.rng = x
		return float64(x>>11)/(1<<53) < b.opts.HalfOpenProb
	default:
		return true
	}
}

// Success records a successful call: any state closes and resets.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.fails = 0
}

// Failure records a failed call. While closed it counts toward the
// threshold; in half-open a single failure re-opens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.opts.FailureThreshold {
			b.open()
		}
	case HalfOpen:
		b.open()
	case Open:
		// A straggler from before the trip; restart the cooldown so a
		// still-failing peer doesn't flap straight through half-open.
		b.openedAt = b.opts.now()
	}
}

func (b *Breaker) open() {
	b.state = Open
	b.fails = 0
	b.openedAt = b.opts.now()
}

// State reports the breaker's current state without advancing it.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Set is a keyed collection of breakers (one per peer URL), created
// lazily on first use.
type Set struct {
	opts Options

	mu sync.Mutex
	m  map[string]*Breaker
}

// NewSet builds a breaker set with shared options.
func NewSet(opts Options) *Set {
	return &Set{opts: opts.withDefaults(), m: make(map[string]*Breaker)}
}

// For returns the breaker for key, creating it closed on first use.
func (s *Set) For(key string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	if !ok {
		b = newBreaker(key, s.opts)
		s.m[key] = b
	}
	return b
}

// Allow is shorthand for For(key).Allow().
func (s *Set) Allow(key string) bool { return s.For(key).Allow() }

// Success is shorthand for For(key).Success().
func (s *Set) Success(key string) { s.For(key).Success() }

// Failure is shorthand for For(key).Failure().
func (s *Set) Failure(key string) { s.For(key).Failure() }

// Snapshot reports each known key's state string, for stats documents.
func (s *Set) Snapshot() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.m))
	for k, b := range s.m {
		out[k] = b.State().String()
	}
	return out
}

// AllClosed reports whether every known breaker is closed — the
// reconvergence condition the chaos harness polls for after a schedule
// drains.
func (s *Set) AllClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.m {
		if b.State() != Closed {
			return false
		}
	}
	return true
}

func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
