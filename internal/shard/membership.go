package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"twophase/internal/fanout"
)

// errRequestFailed marks a ReportFailure entry in the health ledger.
var errRequestFailed = errors.New("shard: request-path failure")

// ProbeFunc checks one backend's health, returning the backend's instance
// id (from the healthz body) on success. A backend that answers but
// reports itself unready (e.g. 503 while warming) is a probe failure:
// routing to it would only queue requests behind its offline build.
type ProbeFunc func(ctx context.Context, node string) (instance string, err error)

// DefaultProbeInterval is the health-check period when MembershipOptions
// leaves it unset.
const DefaultProbeInterval = time.Second

// DefaultProbeThreshold is how many consecutive probe failures mark a
// backend down when MembershipOptions leaves it unset. One failure is too
// twitchy (a single dropped probe under load would shed the node); two in
// a row means the node missed a full interval.
const DefaultProbeThreshold = 2

// MembershipOptions configures a Membership.
type MembershipOptions struct {
	// Nodes is the fixed backend set. Required.
	Nodes []string
	// Probe checks one node. Required.
	Probe ProbeFunc
	// Interval between probe rounds (0 = DefaultProbeInterval).
	Interval time.Duration
	// Threshold is the consecutive-failure count that marks a node down
	// (0 = DefaultProbeThreshold).
	Threshold int
}

// nodeState is one backend's health record, guarded by Membership.mu.
type nodeState struct {
	alive      bool
	fails      int   // consecutive probe failures
	downEvents int64 // up→down transitions
	instance   string
}

// Membership tracks which backends of a fixed set are serving, by probing
// each backend's health endpoint on an interval: a node is marked down
// after Threshold consecutive failures and re-admitted on the first
// success. Nodes start alive (optimistically — the router's inline
// failover covers the window before the first probe lands).
type Membership struct {
	opts MembershipOptions

	mu    sync.Mutex
	state map[string]*nodeState

	stop   context.CancelFunc
	probed chan struct{} // closed after the first full probe round
	done   chan struct{}
}

// newMembership creates a Membership; Start begins probing.
func newMembership(opts MembershipOptions) (*Membership, error) {
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("shard: membership needs at least one node")
	}
	if opts.Probe == nil {
		return nil, fmt.Errorf("shard: nil probe function")
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultProbeInterval
	}
	if opts.Threshold <= 0 {
		opts.Threshold = DefaultProbeThreshold
	}
	m := &Membership{
		opts:   opts,
		state:  make(map[string]*nodeState, len(opts.Nodes)),
		probed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, n := range opts.Nodes {
		m.state[n] = &nodeState{alive: true}
	}
	return m, nil
}

// Start launches the probe loop until ctx is canceled or Close is called.
func (m *Membership) Start(ctx context.Context) {
	ctx, m.stop = context.WithCancel(ctx)
	go func() {
		defer close(m.done)
		ticker := time.NewTicker(m.opts.Interval)
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
// Before that, Alive answers are the optimistic defaults, and a
// readiness gate should not trust them.
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
	timeout := m.opts.Interval
	if timeout < minProbeTimeout {
		timeout = minProbeTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	nodes := m.opts.Nodes
	// Each probe records its own outcome as it lands; a probe that panics
	// (fanout logs it) leaves its node's state as it was.
	_ = fanout.Each(ctx, len(nodes), len(nodes), func(i int) error {
		instance, err := m.opts.Probe(ctx, nodes[i])
		m.record(nodes[i], instance, err)
		return nil
	})
}

// record folds one probe outcome into the node's state.
func (m *Membership) record(node, instance string, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state[node]
	if err == nil {
		st.fails = 0
		st.alive = true
		if instance != "" {
			st.instance = instance
		}
		return
	}
	st.fails++
	if st.alive && st.fails >= m.opts.Threshold {
		st.alive = false
		st.downEvents++
	}
}

// ReportFailure feeds a request-path connection failure into the health
// state, so failover and probing converge on the same view: a backend the
// gateway cannot reach counts against the same consecutive-failure
// threshold as a missed probe.
func (m *Membership) ReportFailure(node string) {
	m.record(node, "", errRequestFailed)
}

// Alive reports whether a node is currently considered serving.
func (m *Membership) Alive(node string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[node]
	return ok && st.alive
}

// AliveCount returns how many nodes are currently considered serving.
func (m *Membership) AliveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, st := range m.state {
		if st.alive {
			n++
		}
	}
	return n
}

// NodeStatus is one backend's health snapshot.
type NodeStatus struct {
	Node string
	// Instance is the backend's self-reported instance id, learned from
	// its healthz body (empty until the first successful probe).
	Instance string
	Alive    bool
	// Fails counts consecutive probe/request failures since the last
	// success.
	Fails int
	// DownEvents counts up→down transitions.
	DownEvents int64
}

// Snapshot returns every node's status in the configured node order.
func (m *Membership) Snapshot() []NodeStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeStatus, 0, len(m.opts.Nodes))
	for _, n := range m.opts.Nodes {
		st := m.state[n]
		out = append(out, NodeStatus{
			Node:       n,
			Instance:   st.instance,
			Alive:      st.alive,
			Fails:      st.fails,
			DownEvents: st.downEvents,
		})
	}
	return out
}
