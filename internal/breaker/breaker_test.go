package breaker

import (
	"sync"
	"testing"
	"time"
)

// testClock is a manual clock shared by a test's breakers.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestSet(opts Options) (*Set, *testClock) {
	clk := &testClock{now: time.Unix(1000, 0)}
	opts.now = clk.Now
	return NewSet(opts), clk
}

func TestClosedUntilThreshold(t *testing.T) {
	s, _ := newTestSet(Options{FailureThreshold: 3})
	b := s.For("peer")
	for i := 0; i < 2; i++ {
		b.Failure()
		if !b.Allow() || b.State() != Closed {
			t.Fatalf("breaker opened after %d failures, threshold 3", i+1)
		}
	}
	b.Failure()
	if b.State() != Open || b.Allow() {
		t.Fatalf("breaker not open after threshold: state=%v", b.State())
	}
}

func TestSuccessResetsFailureStreak(t *testing.T) {
	s, _ := newTestSet(Options{FailureThreshold: 3})
	b := s.For("peer")
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("non-consecutive failures opened the breaker")
	}
}

func TestOpenHalfOpenLifecycle(t *testing.T) {
	s, clk := newTestSet(Options{FailureThreshold: 1, Cooldown: time.Second, HalfOpenProb: 1})
	b := s.For("peer")
	b.Failure()
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside cooldown")
	}
	clk.Advance(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("cooldown not yet elapsed")
	}
	clk.Advance(600 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("half-open with prob 1 must admit")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// A half-open failure re-opens and restarts the cooldown.
	b.Failure()
	if b.State() != Open || b.Allow() {
		t.Fatal("half-open failure did not re-open")
	}
	clk.Advance(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second cooldown did not elapse")
	}
	b.Success()
	if b.State() != Closed || !b.Allow() {
		t.Fatal("half-open success did not close")
	}
}

func TestOpenFailureRestartsCooldown(t *testing.T) {
	s, clk := newTestSet(Options{FailureThreshold: 1, Cooldown: time.Second, HalfOpenProb: 1})
	b := s.For("peer")
	b.Failure()
	clk.Advance(900 * time.Millisecond)
	b.Failure() // straggler while open
	clk.Advance(200 * time.Millisecond)
	if b.Allow() {
		t.Fatal("straggler failure should have restarted the cooldown")
	}
	clk.Advance(900 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("restarted cooldown never elapsed")
	}
}

func TestHalfOpenProbabilisticAndSeeded(t *testing.T) {
	admitSeq := func(seed uint64) []bool {
		s, clk := newTestSet(Options{FailureThreshold: 1, Cooldown: time.Second, HalfOpenProb: 0.5, Seed: seed})
		b := s.For("peer")
		b.Failure()
		clk.Advance(2 * time.Second)
		out := make([]bool, 64)
		for i := range out {
			out[i] = b.Allow()
		}
		return out
	}
	a := admitSeq(7)
	admits := 0
	for _, ok := range a {
		if ok {
			admits++
		}
	}
	if admits == 0 || admits == len(a) {
		t.Fatalf("half-open prob 0.5 admitted %d/%d — not probabilistic", admits, len(a))
	}
	b := admitSeq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at admit %d", i)
		}
	}
	c := admitSeq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical admit sequences")
	}
}

func TestSetSnapshotAndAllClosed(t *testing.T) {
	s, clk := newTestSet(Options{FailureThreshold: 1, Cooldown: time.Second, HalfOpenProb: 1})
	if !s.AllClosed() {
		t.Fatal("empty set must be all-closed")
	}
	s.Success("a")
	s.Failure("b")
	snap := s.Snapshot()
	if snap["a"] != "closed" || snap["b"] != "open" {
		t.Fatalf("snapshot = %v", snap)
	}
	if s.AllClosed() {
		t.Fatal("set with an open breaker reported all-closed")
	}
	clk.Advance(2 * time.Second)
	if !s.Allow("b") {
		t.Fatal("half-open prob 1 must admit")
	}
	if s.AllClosed() {
		t.Fatal("half-open is not closed")
	}
	s.Success("b")
	if !s.AllClosed() {
		t.Fatal("all breakers closed but AllClosed is false")
	}
	if !s.Allow("never-seen") {
		t.Fatal("fresh breaker must start closed")
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		Closed: "closed", Open: "open", HalfOpen: "half-open", State(9): "unknown",
	} {
		if st.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	s := NewSet(Options{FailureThreshold: 3, Cooldown: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := []string{"a", "b"}[i%2]
				if s.Allow(key) {
					if i%3 == 0 {
						s.Failure(key)
					} else {
						s.Success(key)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s.Snapshot()
}
