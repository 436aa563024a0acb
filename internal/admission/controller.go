package admission

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"
)

// Typed refusals of the admission tier. The serving layer maps them onto
// the wire's rate_limited (429) and overloaded (503) errors.
var (
	// ErrRateLimited marks a request refused by its client's token bucket.
	ErrRateLimited = errors.New("admission: rate limited")
	// ErrShed marks a request dropped because the concurrency limit was
	// reached and the wait queue was full (or the waiter was evicted by a
	// higher-priority arrival).
	ErrShed = errors.New("admission: overloaded, request shed")
)

// ShedRetryAfter is the Retry-After hint attached to shed requests: long
// enough for a burst to drain, short enough to keep well-behaved clients
// responsive.
const ShedRetryAfter = 250 * time.Millisecond

// maxClients bounds tracked per-client buckets; at the bound, the least
// recently used bucket is dropped whatever its state, drained or full (a
// dropped client starts over with a full bucket).
const maxClients = 4096

// Options configures a Controller. The zero value disables every limit —
// Admit then always succeeds immediately.
type Options struct {
	// Rate is the per-client token refill rate in requests per second
	// (0 = no rate limiting). Burst is the bucket capacity (0 = max(Rate, 1)).
	Rate  float64
	Burst float64
	// MaxInflight bounds concurrently admitted requests (0 = unlimited).
	MaxInflight int
	// MaxQueue bounds requests waiting for an inflight slot. 0 means no
	// queue: a request arriving at the concurrency limit is shed on the
	// spot. When the queue is full, the lowest-priority waiter is shed
	// first (the newest among equals); an arrival that outranks no waiter
	// is shed itself.
	MaxQueue int
}

// Stats is the controller's observability snapshot, and the "admission"
// block of /v1/stats as it stands: the tags are the wire names.
type Stats struct {
	// Admitted counts requests through the gate (immediately or after
	// queueing); RateLimited and Shed count the typed refusals (a token
	// bucket's 429s, the queue bound's 503s); Queued counts requests that
	// waited for a slot before admission.
	Admitted    int64 `json:"admitted"`
	RateLimited int64 `json:"rate_limited"`
	Shed        int64 `json:"shed"`
	Queued      int64 `json:"queued"`
	// Inflight / QueueLen are instantaneous gauges; Clients counts
	// tracked per-client rate buckets.
	Inflight int `json:"inflight"`
	QueueLen int `json:"queue_len"`
	Clients  int `json:"clients"`
}

// waiter is one queued request. state transitions under the controller
// lock: waiting → granted (slot handed over) or waiting → shed (evicted);
// the ready channel closes on either.
type waiter struct {
	priority int
	seq      uint64
	ready    chan struct{}
	granted  bool
	shed     bool
}

// Controller is the admission gate: per-client token buckets in front of
// a bounded-concurrency slot pool with a priority wait queue.
type Controller struct {
	opts Options

	mu       sync.Mutex
	buckets  map[string]*TokenBucket
	lru      map[string]int64 // client → last-use tick for bucket eviction
	tick     int64
	inflight int
	queue    []*waiter
	seq      uint64
	stats    Stats
}

// NewController creates a Controller for the given options.
func NewController(opts Options) *Controller {
	if opts.Burst <= 0 {
		opts.Burst = opts.Rate
	}
	return &Controller{
		opts:    opts,
		buckets: make(map[string]*TokenBucket),
		lru:     make(map[string]int64),
	}
}

// Admit gates one request for the given client at the given priority
// (higher outranks lower). On success it returns a release func the
// caller MUST invoke when the request finishes — releasing hands the slot
// to the best waiter. On refusal it returns the typed error plus a
// Retry-After hint; a context canceled while waiting returns ctx.Err().
func (c *Controller) Admit(ctx context.Context, client string, priority int) (func(), time.Duration, error) {
	if c.opts.Rate > 0 {
		if ok, retry := c.bucket(client).Allow(time.Now()); !ok {
			c.mu.Lock()
			c.stats.RateLimited++
			c.mu.Unlock()
			return refuse(client, "rate_limited", retry, fmt.Errorf("%w: client %q over %g req/s", ErrRateLimited, client, c.opts.Rate))
		}
	}

	c.mu.Lock()
	if c.opts.MaxInflight <= 0 || c.inflight < c.opts.MaxInflight {
		c.inflight++
		c.stats.Admitted++
		c.mu.Unlock()
		return c.release, 0, nil
	}

	// The slot pool is saturated: queue, or shed at the queue bound.
	if len(c.queue) >= c.opts.MaxQueue {
		v := c.victim()
		if v == nil || v.priority >= priority {
			// Nobody waiting ranks below the arrival — the arrival itself
			// is the lowest priority, so it is the one shed.
			c.stats.Shed++
			c.mu.Unlock()
			return refuse(client, "overloaded", ShedRetryAfter, fmt.Errorf("%w: %d inflight, queue full", ErrShed, c.opts.MaxInflight))
		}
		v.shed = true
		c.remove(v)
		c.stats.Shed++
		close(v.ready)
	}
	w := &waiter{priority: priority, seq: c.seq, ready: make(chan struct{})}
	c.seq++
	c.queue = append(c.queue, w)
	c.stats.Queued++
	c.mu.Unlock()

	select {
	case <-w.ready:
		c.mu.Lock()
		if w.shed {
			c.mu.Unlock()
			return refuse(client, "overloaded", ShedRetryAfter, fmt.Errorf("%w: evicted by a higher-priority request", ErrShed))
		}
		c.stats.Admitted++
		c.mu.Unlock()
		return c.release, 0, nil
	case <-ctx.Done():
		c.mu.Lock()
		defer c.mu.Unlock()
		select {
		case <-w.ready:
			// Lost the race: the slot was already handed to us (or we were
			// shed) before the lock. Give a granted slot straight back.
			if w.granted {
				c.releaseLocked()
			}
		default:
			c.remove(w)
		}
		return nil, 0, ctx.Err()
	}
}

// refuse logs one admission.refused record — who was turned away, with
// the wire code the serving layer answers and the retry hint — and returns
// Admit's refusal.
func refuse(client, code string, retry time.Duration, err error) (func(), time.Duration, error) {
	slog.Info("admission.refused", slog.String("client", client), slog.String("code", code),
		slog.Int64("retry_after_ms", retry.Milliseconds()))
	return nil, retry, err
}

// release returns an admitted request's slot, handing it directly to the
// best waiter when one exists (the inflight count then never dips, so a
// release/admit race cannot overshoot the bound).
func (c *Controller) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked()
}

func (c *Controller) releaseLocked() {
	if w := c.popBest(); w != nil {
		w.granted = true
		close(w.ready)
		return
	}
	c.inflight--
}

// popBest removes and returns the highest-priority waiter, FIFO within a
// priority level; nil when the queue is empty.
func (c *Controller) popBest() *waiter {
	best := -1
	for i, w := range c.queue {
		if best < 0 || w.priority > c.queue[best].priority ||
			(w.priority == c.queue[best].priority && w.seq < c.queue[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	w := c.queue[best]
	c.queue = append(c.queue[:best], c.queue[best+1:]...)
	return w
}

// victim returns the waiter to evict at the queue bound: the lowest
// priority, newest arrival among equals — older waiters of the same rank
// keep their place in line. nil when the queue is empty.
func (c *Controller) victim() *waiter {
	var v *waiter
	for _, w := range c.queue {
		if v == nil || w.priority < v.priority ||
			(w.priority == v.priority && w.seq > v.seq) {
			v = w
		}
	}
	return v
}

// remove deletes a waiter from the queue if it is still queued.
func (c *Controller) remove(target *waiter) {
	for i, w := range c.queue {
		if w == target {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// bucket returns the client's token bucket, creating it full on first
// sight and evicting the least recently used bucket beyond maxClients.
func (c *Controller) bucket(client string) *TokenBucket {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if b, ok := c.buckets[client]; ok {
		c.lru[client] = c.tick
		return b
	}
	if len(c.buckets) >= maxClients {
		oldest, oldestTick := "", int64(0)
		for cl, tk := range c.lru {
			if oldest == "" || tk < oldestTick {
				oldest, oldestTick = cl, tk
			}
		}
		delete(c.buckets, oldest)
		delete(c.lru, oldest)
	}
	b := newTokenBucket(c.opts.Rate, c.opts.Burst)
	c.buckets[client] = b
	c.lru[client] = c.tick
	return b
}

// Stats snapshots the controller's counters and gauges.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Inflight = c.inflight
	st.QueueLen = len(c.queue)
	st.Clients = len(c.buckets)
	return st
}
