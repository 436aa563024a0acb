package admission

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTokenBucketRefill(t *testing.T) {
	b := newTokenBucket(10, 2) // 10 tok/s, burst 2
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(now); !ok {
			t.Fatalf("request %d refused with a full bucket", i)
		}
	}
	ok, retry := b.Allow(now)
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retry hint %v, want (0, 100ms] for 10 tok/s", retry)
	}
	// 100ms refills exactly one token.
	if ok, _ := b.Allow(now.Add(100 * time.Millisecond)); !ok {
		t.Fatal("bucket did not refill after 100ms")
	}
}

// TestTokenBucketClockSkew: time moving backwards must neither refill the
// bucket nor drive tokens negative, and the bucket must resume refilling
// on the new timeline.
func TestTokenBucketClockSkew(t *testing.T) {
	b := newTokenBucket(10, 1)
	now := time.Unix(1000, 0)
	if ok, _ := b.Allow(now); !ok {
		t.Fatal("full bucket refused")
	}
	// Clock jumps an hour back: no refill may happen.
	past := now.Add(-time.Hour)
	if ok, _ := b.Allow(past); ok {
		t.Fatal("backwards clock refilled the bucket")
	}
	if b.tokens < 0 {
		t.Fatalf("tokens went negative: %v", b.tokens)
	}
	// The bucket adopted the new clock: 100ms forward from `past` refills
	// one token — it must NOT wait to catch up with the old timeline.
	if ok, _ := b.Allow(past.Add(100 * time.Millisecond)); !ok {
		t.Fatal("bucket stuck after clock skew")
	}
	// Repeated identical timestamps (a stopped clock) never refill.
	b2 := newTokenBucket(1000, 1)
	b2.Allow(now)
	for i := 0; i < 100; i++ {
		if ok, _ := b2.Allow(now); ok {
			t.Fatal("stopped clock refilled the bucket")
		}
	}
}

func TestRateLimitPerClient(t *testing.T) {
	c := NewController(Options{Rate: 1, Burst: 1})
	rel, _, err := c.Admit(context.Background(), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	_, retry, err := c.Admit(context.Background(), "alice", 0)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if retry <= 0 {
		t.Fatalf("rate-limited refusal carries no retry hint: %v", retry)
	}
	// Another client has its own bucket.
	if rel, _, err := c.Admit(context.Background(), "bob", 0); err != nil {
		t.Fatalf("bob limited by alice's bucket: %v", err)
	} else {
		rel()
	}
	st := c.Stats()
	if st.RateLimited != 1 || st.Admitted != 2 || st.Clients != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestBucketEvictionAtMaxClients: past maxClients the least recently used
// bucket goes, even a drained one, and its client comes back to a full
// bucket.
func TestBucketEvictionAtMaxClients(t *testing.T) {
	c := NewController(Options{Rate: 1, Burst: 1})
	admit := func(client string) error {
		rel, _, err := c.Admit(context.Background(), client, 0)
		if err == nil {
			rel()
		}
		return err
	}
	if err := admit("c0"); err != nil {
		t.Fatal(err)
	}
	if err := admit("c0"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("c0's second request: err = %v, want ErrRateLimited", err)
	}
	for i := 1; i <= maxClients; i++ {
		if err := admit(fmt.Sprintf("c%d", i)); err != nil {
			t.Fatalf("client c%d's first request: %v", i, err)
		}
	}
	if got := c.Stats().Clients; got != maxClients {
		t.Fatalf("%d tracked buckets, want %d", got, maxClients)
	}
	c.mu.Lock()
	_, kept := c.buckets["c0"]
	c.mu.Unlock()
	if kept {
		t.Fatal("c0's drained bucket survived the eviction")
	}
	if err := admit("c0"); err != nil {
		t.Fatalf("evicted c0 not admitted on a full bucket: %v", err)
	}
}

// TestShedOrder: at the queue bound the lowest-priority waiter is shed
// first; an arrival that outranks nobody is shed itself.
func TestShedOrder(t *testing.T) {
	c := NewController(Options{MaxInflight: 1, MaxQueue: 2})
	ctx := context.Background()
	rel, _, err := c.Admit(ctx, "a", 0) // takes the slot
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		err error
		rel func()
	}
	enqueue := func(priority int) chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			rel, _, err := c.Admit(ctx, "a", priority)
			ch <- outcome{err, rel}
		}()
		// Wait for the waiter to actually be queued.
		for i := 0; i < 1000; i++ {
			if c.Stats().QueueLen > 0 && len(ch) == 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		return ch
	}

	low := enqueue(1)
	waitQueueLen(t, c, 1)
	high := enqueue(5)
	waitQueueLen(t, c, 2)

	// Queue full. A mid-priority arrival outranks the low waiter: the low
	// waiter is evicted, the arrival takes its place.
	mid := enqueue(3)
	out := <-low
	if !errors.Is(out.err, ErrShed) {
		t.Fatalf("low-priority waiter: %v, want ErrShed", out.err)
	}
	waitQueueLen(t, c, 2)

	// A zero-priority arrival outranks nobody: shed on the spot.
	_, retry, err := c.Admit(ctx, "a", 0)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("lowest arrival: %v, want ErrShed", err)
	}
	if retry <= 0 {
		t.Fatal("shed refusal carries no retry hint")
	}

	// Releasing the slot admits the HIGHEST-priority waiter first.
	rel()
	out = <-high
	if out.err != nil {
		t.Fatalf("high-priority waiter: %v", out.err)
	}
	select {
	case o := <-mid:
		t.Fatalf("mid admitted before high released: %+v", o)
	default:
	}
	out.rel()
	out = <-mid
	if out.err != nil {
		t.Fatalf("mid-priority waiter: %v", out.err)
	}
	out.rel()

	st := c.Stats()
	if st.Shed != 2 || st.Inflight != 0 || st.QueueLen != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
}

// TestQueueFIFOWithinPriority: equal-priority waiters are admitted in
// arrival order.
func TestQueueFIFOWithinPriority(t *testing.T) {
	c := NewController(Options{MaxInflight: 1, MaxQueue: 4})
	ctx := context.Background()
	rel, _, err := c.Admit(ctx, "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, _, err := c.Admit(ctx, "a", 7)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			rel()
		}(i)
		waitQueueLen(t, c, i+1)
	}
	rel()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v, want FIFO", order)
		}
	}
}

// TestAdmitContextCanceled: a waiter abandoning the queue returns
// ctx.Err() and leaves the queue clean.
func TestAdmitContextCanceled(t *testing.T) {
	c := NewController(Options{MaxInflight: 1, MaxQueue: 4})
	rel, _, err := c.Admit(context.Background(), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Admit(ctx, "a", 0)
		done <- err
	}()
	waitQueueLen(t, c, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitQueueLen(t, c, 0)
	rel()
	if st := c.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight leaked: %+v", st)
	}
}

// TestAdmissionHammer: many goroutines racing admit/release/cancel at a
// tiny bound must never overshoot MaxInflight and must leave zero
// inflight at the end. Run with -race.
func TestAdmissionHammer(t *testing.T) {
	const bound = 4
	c := NewController(Options{MaxInflight: bound, MaxQueue: 8})
	var cur, peak int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(j%5)*time.Millisecond)
				rel, _, err := c.Admit(ctx, "hammer", i%3)
				if err == nil {
					n := atomic.AddInt64(&cur, 1)
					for {
						p := atomic.LoadInt64(&peak)
						if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
							break
						}
					}
					atomic.AddInt64(&cur, -1)
					rel()
				} else if !errors.Is(err, ErrShed) && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("unexpected admit error: %v", err)
				}
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if p := atomic.LoadInt64(&peak); p > bound {
		t.Fatalf("concurrency peaked at %d, bound %d", p, bound)
	}
	if st := c.Stats(); st.Inflight != 0 || st.QueueLen != 0 {
		t.Fatalf("leaked state after hammer: %+v", st)
	}
}

func waitQueueLen(t *testing.T, c *Controller, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().QueueLen == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue length never reached %d (stats %+v)", want, c.Stats())
}

// TestFlagBlock: the one -rate/-burst/-inflight/-queue block parses into
// Options, refuses a negative limit, and builds no controller at all when
// both limits are off.
func TestFlagBlock(t *testing.T) {
	parse := func(args ...string) Options {
		var o Options
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		o.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return o
	}
	if c, err := FromFlags(parse("-burst", "5", "-queue", "3")); c != nil || err != nil {
		t.Fatalf("no -rate and no -inflight built (%v, %v), want no controller", c, err)
	}
	o := parse("-rate", "2.5", "-burst", "4", "-inflight", "3", "-queue", "1")
	if o.Rate != 2.5 || o.Burst != 4 || o.MaxInflight != 3 || o.MaxQueue != 1 {
		t.Fatalf("parsed %+v", o)
	}
	if c, err := FromFlags(o); c == nil || err != nil {
		t.Fatalf("limits set built (%v, %v), want a controller", c, err)
	}
	if c, err := FromFlags(parse("-inflight", "2")); c == nil || err != nil {
		t.Fatalf("-inflight alone built (%v, %v), want a controller", c, err)
	}
	for _, bad := range [][]string{{"-rate", "-1"}, {"-burst", "-1"}, {"-inflight", "-1"}, {"-queue", "-1"}} {
		if c, err := FromFlags(parse(bad...)); c != nil || err == nil {
			t.Fatalf("%v built (%v, %v), want an error", bad, c, err)
		}
	}
}
