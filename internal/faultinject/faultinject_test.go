package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseRejectsMalformedSchedules(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "no rules"},
		{"seed=7", "no rules"},
		{"seed=x;store.write:err", "bad seed"},
		{"store.write", "site:action"},
		{"bogus.site:err", "unknown site"},
		{"store.write:bogus", "unknown action"},
		{"store.write:hang:10ms", "not valid at site"},
		{"transport:hang", "needs a duration"},
		{"transport:hang:zoom", "bad hang duration"},
		{"store.write:torn:1.5", "bad torn fraction"},
		{"store.write:torn:NaN", "bad torn fraction"},
		{"store.write:torn:-Inf", "bad torn fraction"},
		{"store.write:err:10ms", "takes no parameter"},
		{"store.write:err@0", "bad probability"},
		{"store.write:err@1.5", "bad probability"},
		{"store.read:err@NaN", "bad probability"},
		{"store.read:err@+Inf", "bad probability"},
		{"store.write:err#0", "bad fire cap"},
		{"store.write:err#-3", "bad fire cap"},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
}

func TestParseAcceptsFullGrammar(t *testing.T) {
	spec := "seed=42; store.write:torn:0.25@0.5#3 ;transport:hang:150ms@0.1;handler:panic#1;fetch.body:corrupt"
	inj, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	if inj.seed != 42 {
		t.Fatalf("seed = %d, want 42", inj.seed)
	}
	if len(inj.rules) != 4 {
		t.Fatalf("rules = %d, want 4", len(inj.rules))
	}
	r := inj.rules[0]
	if r.site != SiteStoreWrite || r.action != ActTorn || r.frac != 0.25 || r.prob != 0.5 || r.max != 3 {
		t.Fatalf("rule 0 parsed wrong: %+v", r)
	}
	if inj.rules[1].dur != 150*time.Millisecond {
		t.Fatalf("hang duration = %v", inj.rules[1].dur)
	}
}

// The core determinism contract: the same seed fires on the same hit
// indices, run after run, even when hits arrive from many goroutines.
func TestSameSeedSameFireSequence(t *testing.T) {
	const spec = "seed=7;store.read:err@0.3"
	sequence := func(concurrent bool) []int64 {
		inj, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		Activate(inj)
		defer Reset()
		var mu sync.Mutex
		var fired []int64
		drive := func() {
			for i := 0; i < 200; i++ {
				if f := On(SiteStoreRead); f != nil {
					mu.Lock()
					fired = append(fired, f.N)
					mu.Unlock()
				}
			}
		}
		if concurrent {
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() { defer wg.Done(); drive() }()
			}
			wg.Wait()
		} else {
			for g := 0; g < 4; g++ {
				drive()
			}
		}
		set := map[int64]bool{}
		for _, n := range fired {
			set[n] = true
		}
		out := make([]int64, 0, len(set))
		for n := range set {
			out = append(out, n)
		}
		return out
	}
	a := sequence(false)
	b := sequence(true)
	if len(a) == 0 || len(a) == 800 {
		t.Fatalf("prob 0.3 fired %d/800 times — decision not probabilistic", len(a))
	}
	as, bs := map[int64]bool{}, map[int64]bool{}
	for _, n := range a {
		as[n] = true
	}
	for _, n := range b {
		bs[n] = true
	}
	if len(as) != len(bs) {
		t.Fatalf("fired sets differ: serial %d hits, concurrent %d hits", len(as), len(bs))
	}
	for n := range as {
		if !bs[n] {
			t.Fatalf("hit index %d fired serially but not concurrently", n)
		}
	}
	// A different seed fires a different set.
	inj2, _ := Parse("seed=8;store.read:err@0.3")
	Activate(inj2)
	defer Reset()
	differs := false
	for i := 0; i < 800; i++ {
		f := On(SiteStoreRead)
		if as[int64(i)] != (f != nil) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 7 and 8 produced identical fire sets")
	}
}

func TestFireCapDrainsSchedule(t *testing.T) {
	inj, err := Parse("store.write:err#3")
	if err != nil {
		t.Fatal(err)
	}
	Activate(inj)
	defer Reset()
	fires := 0
	for i := 0; i < 50; i++ {
		if On(SiteStoreWrite) != nil {
			fires++
		}
	}
	if fires != 3 {
		t.Fatalf("capped rule fired %d times, want 3", fires)
	}
	snap := snapshot()
	s := snap["store.write:err"]
	if s.Hits != 50 || s.Fires != 3 {
		t.Fatalf("snapshot = %+v, want hits 50 fires 3", s)
	}
	if Fires()["store.write:err"] != 3 {
		t.Fatalf("Fires() = %v", Fires())
	}
}

func TestOffIsOffAndSitesIsolated(t *testing.T) {
	Reset()
	if active.Load() != nil || On(SiteStoreWrite) != nil || snapshot() != nil || Fires() != nil {
		t.Fatal("disarmed injector leaked state")
	}
	inj, _ := Parse("store.write:err")
	Activate(inj)
	defer Reset()
	if On(SiteStoreRead) != nil {
		t.Fatal("store.read fired from a store.write-only schedule")
	}
	if On(SiteStoreWrite) == nil {
		t.Fatal("store.write rule with prob 1 did not fire")
	}
}

func TestFaultHelpers(t *testing.T) {
	f := &Fault{Site: SiteStoreWrite, Action: ActErr, N: 4}
	if err := f.Err(); !errors.Is(err, ErrInjected) || !strings.Contains(err.Error(), "store.write") {
		t.Fatalf("Err() = %v", err)
	}
	torn := &Fault{frac: 0.5}
	if got := torn.Prefix(10); got != 5 {
		t.Fatalf("Prefix(10) = %d, want 5", got)
	}
	if got := torn.Prefix(1); got != 0 {
		t.Fatalf("Prefix(1) = %d, want 0", got)
	}
	whole := &Fault{frac: 0.99}
	if got := whole.Prefix(2); got >= 2 {
		t.Fatalf("Prefix must always be short of complete, got %d of 2", got)
	}
	data := []byte("hello, artifact body")
	c := &Fault{seed: 9, N: 2}
	flipped := c.Corrupt(data)
	if bytes.Equal(flipped, data) {
		t.Fatal("Corrupt did not change the payload")
	}
	if !bytes.Equal(flipped, c.Corrupt(data)) {
		t.Fatal("Corrupt is not deterministic for a fixed fault")
	}
	diff := 0
	for i := range data {
		diff += popcount8(data[i] ^ flipped[i])
	}
	if diff != 1 {
		t.Fatalf("Corrupt flipped %d bits, want exactly 1", diff)
	}
	if got := c.Corrupt(nil); got != nil {
		t.Fatalf("Corrupt(nil) = %v", got)
	}
	start := time.Now()
	h := &Fault{Dur: 5 * time.Millisecond}
	h.Sleep(nil)
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("Sleep returned early")
	}
	done := make(chan struct{})
	close(done)
	start = time.Now()
	(&Fault{Dur: time.Minute}).Sleep(done)
	if time.Since(start) > time.Second {
		t.Fatal("Sleep ignored done channel")
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

type fakeRT struct {
	calls int
}

func (f *fakeRT) RoundTrip(req *http.Request) (*http.Response, error) {
	f.calls++
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(strings.NewReader("ok")),
		Request:    req,
	}, nil
}

func TestTransportFaults(t *testing.T) {
	newReq := func() *http.Request {
		req, err := http.NewRequest(http.MethodGet, "http://backend/v1/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}

	// Off: pass-through.
	Reset()
	base := &fakeRT{}
	rt := Transport(base)
	resp, err := rt.RoundTrip(newReq())
	if err != nil || resp.StatusCode != http.StatusOK || base.calls != 1 {
		t.Fatalf("pass-through: resp=%v err=%v calls=%d", resp, err, base.calls)
	}

	// reset: fails like a closed connection, wrapped in ErrInjected.
	inj, _ := Parse("transport:reset#1")
	Activate(inj)
	if _, err := rt.RoundTrip(newReq()); !errors.Is(err, ErrInjected) {
		t.Fatalf("reset fault: err = %v", err)
	}
	// Cap drained: next trip proceeds.
	if _, err := rt.RoundTrip(newReq()); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	Reset()

	// http500: synthetic untyped 500, base never touched.
	inj, _ = Parse("transport:http500#1")
	Activate(inj)
	before := base.calls
	resp, err = rt.RoundTrip(newReq())
	if err != nil || resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("http500 fault: resp=%v err=%v", resp, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) == 0 || base.calls != before {
		t.Fatalf("http500 body=%q baseCalls=%d want untouched %d", body, base.calls, before)
	}
	Reset()

	// hang: delays, then proceeds.
	inj, _ = Parse("transport:hang:10ms#1")
	Activate(inj)
	start := time.Now()
	resp, err = rt.RoundTrip(newReq())
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("hang fault: resp=%v err=%v", resp, err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("hang fault did not delay the round trip")
	}
	Reset()
}

func TestEnableEnvFallback(t *testing.T) {
	Reset()
	t.Setenv("TWOPHASE_FAULT_SCHEDULE", "store.read:err#1")
	if err := Enable(""); err != nil {
		t.Fatal(err)
	}
	defer Reset()
	if active.Load() == nil {
		t.Fatal("env schedule did not arm")
	}
	if err := Enable("not a schedule"); err == nil {
		t.Fatal("Enable accepted garbage")
	}
	Reset()
	t.Setenv("TWOPHASE_FAULT_SCHEDULE", "")
	if err := Enable(""); err != nil || active.Load() != nil {
		t.Fatalf("empty spec should leave injection off: err=%v active=%v", err, active.Load() != nil)
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[Action]string{
		ActErr: "err", ActTorn: "torn", ActHang: "hang", ActCorrupt: "corrupt",
		ActReset: "reset", ActHTTP500: "http500", ActPanic: "panic", Action(99): "action(99)",
	} {
		if got := a.String(); got != want {
			t.Errorf("Action(%d).String() = %q, want %q", a, got, want)
		}
	}
	_ = fmt.Sprintf("%v", ActErr)
}

// TestFireCapHoldsUnderConcurrentHits: four hits released together on a
// rule capped at one fire deliver exactly one fault, and the fires counter
// (fault_fires on /v1/stats) reads exactly one afterwards — in every trial.
// An add-then-check on the counter left it at 2 in a handful of trials per
// 200 000 while still delivering one fault.
func TestFireCapHoldsUnderConcurrentHits(t *testing.T) {
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.DiscardHandler)) // one fire record per trial
	trials := 200000
	if testing.Short() {
		trials = 20000
	}
	const hitters = 4
	for trial := 0; trial < trials; trial++ {
		inj, err := Parse("store.read:err@0.999#1")
		if err != nil {
			t.Fatal(err)
		}
		var delivered atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for h := 0; h < hitters; h++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if inj.eval(SiteStoreRead) != nil {
					delivered.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if d, f := delivered.Load(), inj.rules[0].fires.Load(); d != 1 || f != 1 {
			t.Fatalf("trial %d: delivered %d faults, fires counter reads %d; want 1 and 1", trial, d, f)
		}
	}
}
