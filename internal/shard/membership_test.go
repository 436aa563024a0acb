package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"twophase/internal/api"
)

// flakyProbe is a scriptable probeFunc: each node answers from its queue
// of outcomes, repeating the last one forever.
type flakyProbe struct {
	mu       sync.Mutex
	outcomes map[string][]error
	instance map[string]string
}

func (p *flakyProbe) probe(_ context.Context, node string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.outcomes[node]
	var err error
	if len(q) > 0 {
		err = q[0]
		if len(q) > 1 {
			p.outcomes[node] = q[1:]
		}
	}
	if err != nil {
		return "", err
	}
	return p.instance[node], nil
}

func (p *flakyProbe) set(node string, outcomes ...error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.outcomes[node] = outcomes
}

func newFlakyProbe() *flakyProbe {
	return &flakyProbe{outcomes: map[string][]error{}, instance: map[string]string{}}
}

// manualClock is a health view's clock in tests: it moves only when told.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *manualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// freezeClock puts m on a manual clock.
func freezeClock(m *Membership) *manualClock {
	clk := &manualClock{t: time.Unix(1000, 0)}
	m.now = clk.now
	return clk
}

// lockedBuffer is an io.Writer safe for the probe loop to log into while a
// test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// capturePeerEvents logs through api.LogJSON into a buffer for the rest of
// the test and returns a reader of the shard.peer_* records so far, each
// rendered "open <peer> fails=<n> cause=<cause>" or "closed <peer>
// by=<by>" — the records an operator (and the chaos log) sees.
func capturePeerEvents(t *testing.T) func() []string {
	t.Helper()
	prev := slog.Default()
	t.Cleanup(func() { slog.SetDefault(prev) })
	var out lockedBuffer
	api.LogJSON(&out)
	return func() []string {
		out.mu.Lock()
		defer out.mu.Unlock()
		var events []string
		for _, line := range strings.Split(strings.TrimSpace(out.buf.String()), "\n") {
			var rec struct {
				Event, Peer, Cause, By string
				Fails                  int
			}
			if line == "" {
				continue
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log record is not one JSON object: %v\n%s", err, line)
			}
			switch rec.Event {
			case "shard.peer_open":
				events = append(events, fmt.Sprintf("open %s fails=%d cause=%s", rec.Peer, rec.Fails, rec.Cause))
			case "shard.peer_closed":
				events = append(events, fmt.Sprintf("closed %s by=%s", rec.Peer, rec.By))
			}
		}
		return events
	}
}

// TestPeerMachine carries every behaviour of the deleted circuit-breaker
// package over to the one health record, as scripts of probe / attempt
// outcomes, clock moves and gate checks against a manual clock: the state
// after each step, the down events and the transition records.
func TestPeerMachine(t *testing.T) {
	type step struct {
		op    string        // fail (attempt), probe-fail, ok, wait, gate-open, gate-shut, gate (coin: answer not checked)
		d     time.Duration // wait only
		state peerState     // after the step
	}
	fail := step{op: "fail", state: peerClosed}
	opened := step{op: "fail", state: peerOpen}
	cases := []struct {
		name       string
		steps      []step
		downEvents int64
		events     []string
	}{
		{name: "threshold opens", steps: []step{fail, opened, {op: "gate-shut", state: peerOpen}},
			downEvents: 1, events: []string{"open n fails=2 cause=attempt"}},
		{name: "a success resets the streak", steps: []step{fail, {op: "ok"}, fail, opened},
			downEvents: 1, events: []string{"open n fails=2 cause=attempt"}},
		{name: "probe and attempt failures share one count", steps: []step{{op: "probe-fail"}, opened},
			downEvents: 1, events: []string{"open n fails=2 cause=attempt"}},
		{name: "open skips until the cooldown", steps: []step{fail, opened,
			{op: "wait", d: peerCooldown - time.Millisecond, state: peerOpen}, {op: "gate-shut", state: peerOpen},
			{op: "wait", d: time.Millisecond, state: peerOpen}, {op: "gate", state: peerHalfOpen}},
			downEvents: 1, events: []string{"open n fails=2 cause=attempt"}},
		{name: "a half-open failure re-opens", steps: []step{fail, opened,
			{op: "wait", d: peerCooldown, state: peerOpen}, {op: "gate", state: peerHalfOpen},
			{op: "probe-fail", state: peerOpen}, {op: "gate-shut", state: peerOpen},
			{op: "wait", d: peerCooldown, state: peerOpen}, {op: "gate", state: peerHalfOpen}},
			downEvents: 1, events: []string{"open n fails=2 cause=attempt", "open n fails=3 cause=probe"}},
		{name: "a straggler restarts the cooldown", steps: []step{fail, opened,
			{op: "wait", d: peerCooldown - 100*time.Millisecond, state: peerOpen}, {op: "fail", state: peerOpen},
			{op: "wait", d: 200 * time.Millisecond, state: peerOpen}, {op: "gate-shut", state: peerOpen},
			{op: "wait", d: peerCooldown - 200*time.Millisecond, state: peerOpen}, {op: "gate", state: peerHalfOpen}},
			downEvents: 1, events: []string{"open n fails=2 cause=attempt"}},
		{name: "success from any state closes", steps: []step{{op: "ok"}, {op: "gate-open"},
			fail, opened, {op: "ok"}, {op: "gate-open"},
			fail, opened, {op: "wait", d: peerCooldown, state: peerOpen}, {op: "gate", state: peerHalfOpen},
			{op: "probe-ok"}, {op: "gate-open"}},
			downEvents: 2, events: []string{
				"open n fails=2 cause=attempt", "closed n by=attempt",
				"open n fails=2 cause=attempt", "closed n by=probe"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events := capturePeerEvents(t)
			m := newMembership([]string{"n"}, nil, time.Hour, 0)
			clk := freezeClock(m)
			for i, s := range tc.steps {
				switch s.op {
				case "fail":
					m.failure("n", byAttempt)
				case "probe-fail":
					m.failure("n", byProbe)
				case "ok":
					m.success("n", "", byAttempt)
				case "probe-ok":
					m.success("n", "inst", byProbe)
				case "wait":
					clk.advance(s.d)
				case "gate-open", "gate-shut":
					if got := m.allow("n"); got != (s.op == "gate-open") {
						t.Fatalf("step %d (%s): gate admitted = %v", i, s.op, got)
					}
				case "gate":
					m.allow("n")
				}
				if got := m.snapshot()[0].state; got != s.state {
					t.Fatalf("step %d (%s): state %v, want %v", i, s.op, got, s.state)
				}
			}
			if got := m.snapshot()[0].downEvents; got != tc.downEvents {
				t.Errorf("down events = %d, want %d", got, tc.downEvents)
			}
			if got := events(); !slices.Equal(got, tc.events) {
				t.Errorf("transition records = %q, want %q", got, tc.events)
			}
		})
	}
}

// TestHalfOpenCoin: a half-open peer admits by a coin that is a coin (some
// attempts in, some out), and is deterministic per (seed, peer): the same
// pair admits the same sequence, another seed or another peer does not.
func TestHalfOpenCoin(t *testing.T) {
	admits := func(seed uint64, node string) []bool {
		m := newMembership([]string{node}, nil, time.Hour, seed)
		clk := freezeClock(m)
		for i := 0; i < openAfter; i++ {
			m.failure(node, byAttempt)
		}
		clk.advance(peerCooldown)
		out := make([]bool, 64)
		for i := range out {
			out[i] = m.allow(node)
		}
		return out
	}
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.DiscardHandler))
	a := admits(7, "http://a")
	n := 0
	for _, in := range a {
		if in {
			n++
		}
	}
	if n == 0 || n == len(a) {
		t.Fatalf("half-open coin admitted %d of %d: not a coin", n, len(a))
	}
	if !slices.Equal(a, admits(7, "http://a")) {
		t.Fatal("same (seed, peer) admitted a different sequence")
	}
	if slices.Equal(a, admits(8, "http://a")) {
		t.Fatal("another seed admitted the same sequence")
	}
	if slices.Equal(a, admits(7, "http://b")) {
		t.Fatal("another peer admitted the same sequence")
	}
}

// TestLiveFirstReadsEachOwnerOnce: while another goroutine flips one
// owner's record as fast as it can (through every entry point a probe or
// an attempt uses), every liveFirst answer is a permutation of the owner
// set — an owner read twice across a flip would be listed twice (a
// phantom failover) or dropped (an unavailable answer with an owner
// untried).
func TestLiveFirstReadsEachOwnerOnce(t *testing.T) {
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.DiscardHandler)) // two records per flip
	owners := []string{"a", "b", "c"}
	m := newMembership(owners, nil, time.Hour, 0)
	m.cooldown = 0 // every gate check turns the open peer half-open
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.failure("b", byProbe)
			m.failure("b", byAttempt)
			m.allow("b")
			m.success("b", "", byProbe)
		}
	}()
	up, down := []string{"a", "b", "c"}, []string{"a", "c", "b"}
	for i := 0; i < 10000; i++ {
		got, alive := m.liveFirst(owners)
		if !(alive == 3 && slices.Equal(got, up) || alive == 2 && slices.Equal(got, down)) {
			close(stop)
			<-done
			t.Fatalf("call %d: liveFirst = %v with %d alive, want %v (3) or %v (2)", i, got, alive, up, down)
		}
	}
	close(stop)
	<-done
}

// TestMembershipDownAfterThreshold: a node goes down only after openAfter
// consecutive probe failures, counts one down event per transition, and
// one success re-admits it.
func TestMembershipDownAfterThreshold(t *testing.T) {
	probe := newFlakyProbe()
	probe.instance["a"] = "inst-a"
	// Ticks never fire; rounds are driven by hand.
	m := newMembership([]string{"a"}, probe.probe, time.Hour, 0)
	ctx := context.Background()
	a := func() peerStatus { return m.snapshot()[0] }

	probe.set("a", nil)
	m.probeAll(ctx)
	if a().state != peerClosed || m.AliveCount() != 1 {
		t.Fatal("healthy node not alive")
	}
	if a().instance != "inst-a" {
		t.Fatalf("instance not learned from probe: %+v", a())
	}

	boom := errors.New("connection refused")
	probe.set("a", boom)
	m.probeAll(ctx)
	if a().state != peerClosed {
		t.Fatal("one failure below threshold marked the node down")
	}
	m.probeAll(ctx)
	if a().state != peerOpen || m.AliveCount() != 0 {
		t.Fatal("threshold reached but node still alive")
	}
	m.probeAll(ctx) // further failures must not double-count the event
	if s := a(); s.downEvents != 1 || s.fails != 3 {
		t.Fatalf("after 3 failures: %+v", s)
	}

	probe.set("a", nil)
	m.probeAll(ctx)
	if s := a(); s.state != peerClosed || s.fails != 0 || s.downEvents != 1 {
		t.Fatalf("success did not re-admit the node: %+v", s)
	}
	// Instance survives the outage; down events accumulate per transition.
	probe.set("a", boom)
	m.probeAll(ctx)
	m.probeAll(ctx)
	if s := a(); s.downEvents != 2 || s.instance != "inst-a" {
		t.Fatalf("second outage: %+v", s)
	}
}

// TestMembershipChargedAttemptsCount: failures charged on the request path
// count against the same threshold as missed probes, on one node only.
func TestMembershipChargedAttemptsCount(t *testing.T) {
	m := newMembership([]string{"a", "b"}, newFlakyProbe().probe, time.Hour, 0)
	m.failure("a", byAttempt)
	m.failure("a", byAttempt)
	if s := m.snapshot(); s[0].state != peerOpen || s[1].state != peerClosed {
		t.Fatalf("after two charged attempts on a: %+v", s)
	}
	if m.AliveCount() != 1 {
		t.Fatalf("alive count = %d", m.AliveCount())
	}
}

// TestMembershipStartAndClose: the probe loop runs a first round promptly
// (WaitProbed) and Close terminates it.
func TestMembershipStartAndClose(t *testing.T) {
	probe := newFlakyProbe()
	probe.set("a", errors.New("down"))
	m := newMembership([]string{"a"}, probe.probe, 10*time.Millisecond, 0)
	if m.Probed() {
		t.Fatal("membership claims a probe round before Start")
	}
	m.Start(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.WaitProbed(ctx); err != nil {
		t.Fatalf("first probe round never completed: %v", err)
	}
	if !m.Probed() {
		t.Fatal("Probed false after WaitProbed returned")
	}
	deadline := time.After(5 * time.Second)
	for m.AliveCount() != 0 {
		select {
		case <-deadline:
			t.Fatal("failing node never marked down by the probe loop")
		case <-time.After(5 * time.Millisecond):
		}
	}
	m.Close() // must not hang or race
}
