package shard

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"twophase/internal/fanout"
)

// probeFunc checks one backend's health, returning the backend's instance
// id (from the healthz body) on success. A backend that answers but
// reports itself unready (e.g. 503 while warming) is a probe failure:
// routing to it would only queue requests behind its offline build.
type probeFunc func(ctx context.Context, node string) (instance string, err error)

// DefaultProbeInterval is the health-check period when RouterOptions
// leaves it unset.
const DefaultProbeInterval = time.Second

const (
	// openAfter consecutive failures — missed probes and charged attempts
	// alike — open a closed peer. One is too twitchy (a single dropped
	// probe under load would shed the node); two in a row means the node
	// missed a full probe interval or failed two requests back to back.
	openAfter = 2
	// peerCooldown is how long an open peer is skipped before it turns
	// half-open.
	peerCooldown = 2 * time.Second
	// halfOpenAdmit is the share of attempts a half-open peer admits, so
	// callers sharing one peer do not all pile onto a barely-recovered
	// node at once.
	halfOpenAdmit = 0.5
)

// peerState is a peer's position in the health machine. Alive is closed.
type peerState uint8

const (
	peerClosed   peerState = iota // serving: scattered to, walked first
	peerOpen                      // skipped until its cooldown lapses
	peerHalfOpen                  // the coin admits some attempts
)

// String renders the state as /v1/stats' "breaker" field.
func (s peerState) String() string {
	switch s {
	case peerOpen:
		return "open"
	case peerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Causes of a transition, as the peer_open / peer_closed records name them.
const (
	byProbe   = "probe"
	byAttempt = "attempt"
)

// peer is one backend's health record.
type peer struct {
	state      peerState
	fails      int       // consecutive failures since the last success, in any state
	openedAt   time.Time // when the peer opened, or a straggler restarted its cooldown
	coin       uint64    // xorshift state of the half-open admission coin
	downEvents int64     // closed → open transitions
	instance   string    // self-reported instance id, from the last successful probe
}

// Membership is the fleet's one health view: a record per peer of a fixed
// set, moved by health probes (the router's loop) and by charged attempts
// (walk) alike, and read by scatter, walk's gate and /v1/stats. A peer is
// closed (alive) until openAfter consecutive failures open it; an open
// peer is skipped for peerCooldown and then turns half-open, where a coin
// seeded per (seed, peer) admits halfOpenAdmit of the attempts. Any
// success closes it, a half-open failure re-opens it, and a failure while
// open (a straggler) restarts the cooldown. Peers start closed —
// optimistically; inline failover covers the window before the first
// probe lands.
//
// Every transition into open or closed is one slog record, written under
// the lock so a peer's records are in the order its state moved:
// "shard.peer_open" (peer, fails, cause: probe / attempt) and
// "shard.peer_closed" (peer, by: probe / attempt). Open → half-open is the
// clock, not an observation of the peer, and is not logged.
type Membership struct {
	nodes    []string
	probe    probeFunc // nil: no probe loop (the artifact fetcher)
	interval time.Duration
	cooldown time.Duration    // peerCooldown; tests stretch it
	now      func() time.Time // time.Now; tests drive a manual clock

	mu    sync.Mutex
	peers map[string]*peer // fixed key set: only the records move

	stop   context.CancelFunc
	probed chan struct{} // closed after the first full probe round
	done   chan struct{}
}

// newMembership creates the health view over nodes; Start begins probing
// them with probe every interval (0 = DefaultProbeInterval).
func newMembership(nodes []string, probe probeFunc, interval time.Duration, seed uint64) *Membership {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	m := &Membership{
		nodes:    nodes,
		probe:    probe,
		interval: interval,
		cooldown: peerCooldown,
		now:      time.Now,
		peers:    make(map[string]*peer, len(nodes)),
		probed:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, n := range nodes {
		// Per-peer coin stream: the same (seed, peer) admits the same
		// sequence run after run. xorshift's one fixed point is zero.
		coin := seed ^ hash64(n)
		if coin == 0 {
			coin = 0x9E3779B97F4A7C15
		}
		m.peers[n] = &peer{coin: coin}
	}
	return m
}

// Start launches the probe loop until ctx is canceled or Close is called.
func (m *Membership) Start(ctx context.Context) {
	ctx, m.stop = context.WithCancel(ctx)
	go func() {
		defer close(m.done)
		ticker := time.NewTicker(m.interval)
		defer ticker.Stop()
		m.probeAll(ctx)
		close(m.probed)
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				m.probeAll(ctx)
			}
		}
	}()
}

// Close stops the probe loop and waits for it to exit.
func (m *Membership) Close() {
	if m.stop != nil {
		m.stop()
		<-m.done
	}
}

// WaitProbed blocks until the first full probe round has completed (or
// ctx is done), so callers can start with real health state instead of
// the optimistic default.
func (m *Membership) WaitProbed(ctx context.Context) error {
	select {
	case <-m.probed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Probed reports whether the first full probe round has completed.
// Before that, every peer is closed by default, and a readiness gate
// should not trust it.
func (m *Membership) Probed() bool {
	select {
	case <-m.probed:
		return true
	default:
		return false
	}
}

// minProbeTimeout floors the per-round probe deadline: a tight probe
// interval is for fast failure *detection* and must not silently demand
// that healthy backends answer healthz equally fast (a GC pause or
// offline-build contention would flap them).
const minProbeTimeout = time.Second

// probeAll probes every node concurrently; one slow backend must not
// delay marking another down. A round slower than the interval delays
// the next tick rather than overlapping it.
func (m *Membership) probeAll(ctx context.Context) {
	timeout := m.interval
	if timeout < minProbeTimeout {
		timeout = minProbeTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	// Each probe records its own outcome as it lands; a probe that panics
	// (fanout logs it) leaves its node's record as it was.
	_ = fanout.Each(ctx, len(m.nodes), len(m.nodes), func(i int) error {
		if instance, err := m.probe(ctx, m.nodes[i]); err != nil {
			m.failure(m.nodes[i], byProbe)
		} else {
			m.success(m.nodes[i], instance, byProbe)
		}
		return nil
	})
}

// allow is walk's gate: whether node may be called now. An open peer
// whose cooldown has lapsed turns half-open here, and a half-open peer
// admits by its coin.
func (m *Membership) allow(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[node]
	switch p.state {
	case peerClosed:
		return true
	case peerOpen:
		if m.now().Sub(p.openedAt) < m.cooldown {
			return false
		}
		p.state = peerHalfOpen
	}
	// xorshift64: cheap, deterministic per peer.
	p.coin ^= p.coin << 13
	p.coin ^= p.coin >> 7
	p.coin ^= p.coin << 17
	return float64(p.coin>>11)/(1<<53) < halfOpenAdmit
}

// success records an answer from node — a passed probe (with the
// instance id its healthz body carried) or a successful attempt (""):
// whatever its state, the peer closes.
func (m *Membership) success(node, instance, by string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[node]
	if instance != "" {
		p.instance = instance
	}
	p.fails = 0
	if p.state != peerClosed {
		p.state = peerClosed
		slog.Info("shard.peer_closed", slog.String("peer", node), slog.String("by", by))
	}
}

// failure records a missed probe or a charged attempt against node.
func (m *Membership) failure(node, cause string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[node]
	p.fails++
	switch p.state {
	case peerOpen:
		// A straggler from before the trip: restart the cooldown so a
		// still-failing peer does not flap straight through half-open.
		p.openedAt = m.now()
		return
	case peerClosed:
		if p.fails < openAfter {
			return
		}
		p.downEvents++
	}
	p.state = peerOpen
	p.openedAt = m.now()
	slog.Warn("shard.peer_open", slog.String("peer", node), slog.Int("fails", p.fails), slog.String("cause", cause))
}

// liveFirst reorders nodes so closed peers come first, keeping the given
// (ring priority) order within each class, and reports how many lead the
// list. Each peer's state is read once, under one lock: a probe landing
// mid-call can neither list a peer twice nor drop it. Scatter spreads work
// over the closed prefix only (a known-down backend must not cost every
// batch an inline failover), while failover still walks the whole list:
// walk's gate skips the tail until a peer's cooldown lapses, and the coin
// then lets a recovered backend earn traffic before its next probe. A set
// with no closed peer is returned as-is with alive = len(nodes), for the
// same reason.
func (m *Membership) liveFirst(nodes []string) (ordered []string, alive int) {
	ordered = make([]string, 0, len(nodes))
	var down []string
	m.mu.Lock()
	for _, n := range nodes {
		if m.peers[n].state == peerClosed {
			ordered = append(ordered, n)
		} else {
			down = append(down, n)
		}
	}
	m.mu.Unlock()
	if len(ordered) == 0 {
		return nodes, len(nodes)
	}
	return append(ordered, down...), len(ordered)
}

// AliveCount returns how many peers are closed.
func (m *Membership) AliveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, p := range m.peers {
		if p.state == peerClosed {
			n++
		}
	}
	return n
}

// peerStatus is one peer's record as of a snapshot.
type peerStatus struct {
	node string
	peer
}

// snapshot copies every peer's record in the configured node order.
func (m *Membership) snapshot() []peerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]peerStatus, len(m.nodes))
	for i, n := range m.nodes {
		out[i] = peerStatus{n, *m.peers[n]}
	}
	return out
}
