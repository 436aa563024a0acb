package shard

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// flakyProbe is a scriptable ProbeFunc: each node answers from its queue
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

func TestMembershipRejectsBadOptions(t *testing.T) {
	if _, err := newMembership(MembershipOptions{Probe: func(context.Context, string) (string, error) { return "", nil }}); err == nil {
		t.Fatal("empty node set accepted")
	}
	if _, err := newMembership(MembershipOptions{Nodes: []string{"a"}}); err == nil {
		t.Fatal("nil probe accepted")
	}
}

// TestMembershipDownAfterThresholdAndRecovery: a node goes down only
// after K consecutive failures, counts one down event per transition, and
// one success re-admits it.
func TestMembershipDownAfterThreshold(t *testing.T) {
	probe := newFlakyProbe()
	probe.instance["a"] = "inst-a"
	m, err := newMembership(MembershipOptions{
		Nodes:     []string{"a"},
		Probe:     probe.probe,
		Interval:  time.Hour, // ticks never fire; we drive rounds by hand
		Threshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	probe.set("a", nil)
	m.probeAll(ctx)
	if !m.Alive("a") || m.AliveCount() != 1 {
		t.Fatal("healthy node not alive")
	}
	if s := m.Snapshot(); s[0].Instance != "inst-a" {
		t.Fatalf("instance not learned from probe: %+v", s[0])
	}

	boom := errors.New("connection refused")
	probe.set("a", boom)
	m.probeAll(ctx)
	if !m.Alive("a") {
		t.Fatal("one failure below threshold marked the node down")
	}
	m.probeAll(ctx)
	if m.Alive("a") {
		t.Fatal("threshold reached but node still alive")
	}
	m.probeAll(ctx) // further failures must not double-count the event
	s := m.Snapshot()[0]
	if s.DownEvents != 1 || s.Fails != 3 {
		t.Fatalf("after 3 failures: %+v", s)
	}

	probe.set("a", nil)
	m.probeAll(ctx)
	if !m.Alive("a") {
		t.Fatal("success did not re-admit the node")
	}
	if s := m.Snapshot()[0]; s.Fails != 0 || s.DownEvents != 1 {
		t.Fatalf("after recovery: %+v", s)
	}
	// Instance survives the outage; down events accumulate per transition.
	probe.set("a", boom)
	m.probeAll(ctx)
	m.probeAll(ctx)
	if s := m.Snapshot()[0]; s.DownEvents != 2 || s.Instance != "inst-a" {
		t.Fatalf("second outage: %+v", s)
	}
}

// TestMembershipReportFailure: request-path failures count against the
// same threshold as missed probes.
func TestMembershipReportFailure(t *testing.T) {
	probe := newFlakyProbe()
	m, err := newMembership(MembershipOptions{
		Nodes: []string{"a", "b"}, Probe: probe.probe, Interval: time.Hour, Threshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.ReportFailure("a")
	m.ReportFailure("a")
	if m.Alive("a") {
		t.Fatal("request-path failures did not mark the node down")
	}
	if !m.Alive("b") {
		t.Fatal("unrelated node affected")
	}
	if m.AliveCount() != 1 {
		t.Fatalf("alive count = %d", m.AliveCount())
	}
}

// TestMembershipStartProbesAndCloses: the probe loop runs a first round
// promptly (WaitProbed) and Close terminates it.
func TestMembershipStartAndClose(t *testing.T) {
	probe := newFlakyProbe()
	probe.set("a", errors.New("down"))
	m, err := newMembership(MembershipOptions{
		Nodes: []string{"a"}, Probe: probe.probe, Interval: 10 * time.Millisecond, Threshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	for m.Alive("a") {
		select {
		case <-deadline:
			t.Fatal("failing node never marked down by the probe loop")
		case <-time.After(5 * time.Millisecond):
		}
	}
	m.Close() // must not hang or race
}
