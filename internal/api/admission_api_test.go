package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twophase/internal/admission"
	"twophase/internal/datahub"
)

// errAPI is an API stub that fails every call with a fixed error.
type errAPI struct{ err error }

func (s errAPI) Select(context.Context, *SelectRequest) (*SelectResponse, error) {
	return nil, s.err
}
func (s errAPI) Targets(context.Context, string) (*TargetsResponse, error) { return nil, s.err }
func (s errAPI) Stats(context.Context) (*Stats, error)                     { return nil, s.err }

var validReq = &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}}

// TestWireSentinelRegression pins errors.Is across the HTTP boundary for
// EVERY contract sentinel, including the admission pair, plus the
// Retry-After contract: the exact millisecond hint rides the body, the
// header carries it rounded up to whole seconds.
func TestWireSentinelRegression(t *testing.T) {
	cases := []struct {
		name     string
		served   error
		sentinel error
		status   int
		retry    time.Duration
	}{
		{"bad_request", errBadRequest("nope"), ErrBadRequest, http.StatusBadRequest, 0},
		{"unknown_task", ErrUnknownTask, ErrUnknownTask, http.StatusNotFound, 0},
		{"unknown_target", ErrUnknownTarget, ErrUnknownTarget, http.StatusNotFound, 0},
		{"seed_rejected", ErrSeedRejected, ErrSeedRejected, http.StatusForbidden, 0},
		{"canceled", ErrCanceled, ErrCanceled, StatusClientClosedRequest, 0},
		{"unavailable", ErrUnavailable, ErrUnavailable, http.StatusServiceUnavailable, 0},
		{"rate_limited", &Error{Code: CodeRateLimited, Message: "slow down", RetryAfter: 1500 * time.Millisecond},
			ErrRateLimited, http.StatusTooManyRequests, 1500 * time.Millisecond},
		{"overloaded", &Error{Code: CodeOverloaded, Message: "shed", RetryAfter: 250 * time.Millisecond},
			ErrOverloaded, http.StatusServiceUnavailable, 250 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(NewHandlerWith(errAPI{err: tc.served}, HandlerOptions{}))
			defer ts.Close()

			_, err := NewClient(ts.URL, ts.Client()).Select(context.Background(), validReq)
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is lost across the wire: got %v", err)
			}
			if got := RetryAfter(err); got != tc.retry {
				t.Fatalf("RetryAfter = %v, want %v", got, tc.retry)
			}
			if tc.retry > 0 && !Retryable(err) {
				t.Fatalf("refusal with a retry hint must be Retryable: %v", err)
			}

			// The raw HTTP surface: status, body shape, Retry-After header.
			res, rerr := http.Post(ts.URL+"/v1/select", "application/json",
				strings.NewReader(`{"task":"nlp","targets":["tweet_eval"]}`))
			if rerr != nil {
				t.Fatal(rerr)
			}
			defer res.Body.Close()
			if res.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", res.StatusCode, tc.status)
			}
			var e ErrorResponse
			if err := json.NewDecoder(res.Body).Decode(&e); err != nil || e.Code != Code(tc.served) {
				t.Fatalf("error body: %v %+v", err, e)
			}
			if e.RetryAfterMS != tc.retry.Milliseconds() {
				t.Fatalf("retry_after_ms = %d, want %d", e.RetryAfterMS, tc.retry.Milliseconds())
			}
			header := res.Header.Get("Retry-After")
			if tc.retry <= 0 {
				if header != "" {
					t.Fatalf("unexpected Retry-After header %q", header)
				}
			} else {
				wantHeader := "1"
				if tc.retry > time.Second {
					wantHeader = "2" // rounded UP to whole seconds
				}
				if header != wantHeader {
					t.Fatalf("Retry-After header %q, want %q", header, wantHeader)
				}
			}
		})
	}
}

// okAPI is an API stub whose Select blocks until its gate closes (a nil
// gate answers immediately), so tests can hold a request in flight.
type okAPI struct{ gate chan struct{} }

func (s okAPI) Select(ctx context.Context, req *SelectRequest) (*SelectResponse, error) {
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, classify(ctx.Err())
		}
	}
	return &SelectResponse{APIVersion: Version, Task: req.Task,
		Results: []TargetResult{{Target: req.Targets[0], Winner: "w"}}}, nil
}
func (s okAPI) Targets(context.Context, string) (*TargetsResponse, error) {
	return &TargetsResponse{APIVersion: Version}, nil
}
func (s okAPI) Stats(context.Context) (*Stats, error) { return &Stats{APIVersion: Version}, nil }

// TestAdmissionMiddlewareRateLimit: the handler's admission gate refuses
// over-rate clients as well-formed 429s keyed by X-Client-Id, health and
// stats stay ungated, and the admission snapshot rides /v1/stats.
func TestAdmissionMiddlewareRateLimit(t *testing.T) {
	ctrl := admission.NewController(admission.Options{Rate: 0.001, Burst: 1})
	ts := httptest.NewServer(NewHandlerWith(okAPI{}, HandlerOptions{Admission: ctrl}))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	post := func(client string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/select",
			strings.NewReader(`{"task":"nlp","targets":["tweet_eval"]}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ClientIDHeader, client)
		res, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := post("alice")
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", res.StatusCode)
	}
	res = post("alice")
	defer res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate request: status %d, want 429", res.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil || e.Code != CodeRateLimited {
		t.Fatalf("429 body: %v %+v", err, e)
	}
	if e.RetryAfterMS <= 0 || res.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without a retry hint: %+v header %q", e, res.Header.Get("Retry-After"))
	}
	// Another client has its own bucket.
	res = post("bob")
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("bob limited by alice's bucket: status %d", res.StatusCode)
	}
	// Health and stats are never gated, and stats carries the snapshot.
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission == nil || st.Admission.RateLimited != 1 || st.Admission.Admitted != 2 {
		t.Fatalf("stats admission block: %+v", st.Admission)
	}
}

// TestAdmissionMiddlewareShed: at the concurrency bound with no queue, an
// arrival sheds as a well-formed 503 overloaded carrying Retry-After.
func TestAdmissionMiddlewareShed(t *testing.T) {
	ctrl := admission.NewController(admission.Options{MaxInflight: 1})
	gate := make(chan struct{})
	ts := httptest.NewServer(NewHandlerWith(okAPI{gate: gate}, HandlerOptions{Admission: ctrl}))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	first := make(chan error, 1)
	go func() {
		_, err := c.Select(ctx, validReq)
		first <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for ctrl.Stats().Inflight == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	_, err := c.Select(ctx, validReq)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("arrival at the bound: %v, want ErrOverloaded", err)
	}
	if RetryAfter(err) != admission.DefaultShedRetryAfter {
		t.Fatalf("shed retry hint %v, want %v", RetryAfter(err), admission.DefaultShedRetryAfter)
	}
	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
}

// rateLimitN is an API stub that refuses the first n Select calls as
// rate_limited with a tiny retry hint, then succeeds.
type rateLimitN struct {
	okAPI
	n     int
	calls int64
	// hint overrides the Retry-After carried on each refusal (default 5ms).
	hint time.Duration
}

func (s *rateLimitN) Select(ctx context.Context, req *SelectRequest) (*SelectResponse, error) {
	if atomic.AddInt64(&s.calls, 1) <= int64(s.n) {
		hint := s.hint
		if hint <= 0 {
			hint = 5 * time.Millisecond
		}
		return nil, &Error{Code: CodeRateLimited, Message: "not yet", RetryAfter: hint}
	}
	return s.okAPI.Select(ctx, req)
}

// TestSelectRetry: the client's retry loop consults Retryable and sleeps
// the server's hint; deterministic rejections are never retried.
func TestSelectRetry(t *testing.T) {
	stub := &rateLimitN{n: 2}
	ts := httptest.NewServer(NewHandlerWith(stub, HandlerOptions{}))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	resp, err := c.SelectRetry(ctx, validReq, 3)
	if err != nil {
		t.Fatalf("retries exhausted: %v", err)
	}
	if resp.Results[0].Winner == "" || atomic.LoadInt64(&stub.calls) != 3 {
		t.Fatalf("resp %+v after %d calls", resp, stub.calls)
	}

	// Attempts exhausted → the last refusal comes back, sentinel intact.
	stub2 := &rateLimitN{n: 100}
	ts2 := httptest.NewServer(NewHandlerWith(stub2, HandlerOptions{}))
	defer ts2.Close()
	if _, err := NewClient(ts2.URL, ts2.Client()).SelectRetry(ctx, validReq, 2); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("exhausted retry lost its refusal: %v", err)
	}
	if got := atomic.LoadInt64(&stub2.calls); got != 2 {
		t.Fatalf("made %d attempts, want 2", got)
	}

	// Deterministic rejections are not retried.
	stub3 := errAPI{err: ErrUnknownTarget}
	ts3 := httptest.NewServer(NewHandlerWith(stub3, HandlerOptions{}))
	defer ts3.Close()
	if _, err := NewClient(ts3.URL, ts3.Client()).SelectRetry(ctx, validReq, 5); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("got %v, want ErrUnknownTarget", err)
	}
}

// TestSelectRetryHonorsBudgetDeadline: a request carrying deadline_ms
// bounds the cumulative retry wait by its own budget — the client must not
// back off past the instant the server would have truncated the work.
func TestSelectRetryHonorsBudgetDeadline(t *testing.T) {
	// Each refusal hints a 30ms wait; a 50ms budget fits exactly one sleep
	// (30ms), and stops before the second would overrun (30+30 > 50).
	stub := &rateLimitN{n: 100}
	ts := httptest.NewServer(NewHandlerWith(stub, HandlerOptions{}))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	atomic.StoreInt64(&stub.calls, 0)
	stubHint := 30 * time.Millisecond
	stub.hint = stubHint

	req := *validReq
	req.DeadlineMS = 50
	start := time.Now()
	_, err := c.SelectRetry(context.Background(), &req, 10)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("budget-bounded retry lost its refusal: %v", err)
	}
	if got := atomic.LoadInt64(&stub.calls); got != 2 {
		t.Fatalf("made %d attempts, want 2 (one sleep fits the 50ms budget)", got)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("retry loop ran %v, should have stopped at the budget", elapsed)
	}

	// Boundary: a budget equal to the total wait is spent, not exceeded —
	// slept+wait == budget still sleeps (the server truncates AT the
	// deadline, so arriving exactly then is still useful).
	stub2 := &rateLimitN{n: 100, hint: 25 * time.Millisecond}
	ts2 := httptest.NewServer(NewHandlerWith(stub2, HandlerOptions{}))
	defer ts2.Close()
	req2 := *validReq
	req2.DeadlineMS = 50 // fits exactly two 25ms sleeps
	if _, err := NewClient(ts2.URL, ts2.Client()).SelectRetry(context.Background(), &req2, 10); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("boundary retry lost its refusal: %v", err)
	}
	if got := atomic.LoadInt64(&stub2.calls); got != 3 {
		t.Fatalf("made %d attempts, want 3 (two exact-fit sleeps)", got)
	}

	// No deadline_ms → the budget bound is inert and attempts rule.
	stub3 := &rateLimitN{n: 100, hint: time.Millisecond}
	ts3 := httptest.NewServer(NewHandlerWith(stub3, HandlerOptions{}))
	defer ts3.Close()
	if _, err := NewClient(ts3.URL, ts3.Client()).SelectRetry(context.Background(), validReq, 4); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("unbudgeted retry lost its refusal: %v", err)
	}
	if got := atomic.LoadInt64(&stub3.calls); got != 4 {
		t.Fatalf("made %d attempts, want 4", got)
	}
}

// TestAdmissionTruncationHammer mixes cancellation, zero-budget
// truncation and load shedding against a real dispatcher behind the
// admission gate. Whatever the interleaving, a request either succeeds
// (200, possibly truncated, with a winner) or fails with a typed
// transient refusal or its own cancellation — never an internal error.
// Run with -race.
func TestAdmissionTruncationHammer(t *testing.T) {
	d, svc := newTestDispatcher(t)
	if _, err := svc.Framework(context.Background(), datahub.TaskNLP); err != nil {
		t.Fatal(err)
	}
	ctrl := admission.NewController(admission.Options{MaxInflight: 2, MaxQueue: 2})
	ts := httptest.NewServer(NewHandlerWith(d, HandlerOptions{Admission: ctrl}))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (i+j)%3 == 0 {
					cancel() // a dead client mid-storm
				}
				req := &SelectRequest{
					Task:          datahub.TaskNLP,
					Targets:       []string{"tweet_eval"},
					SelectOptions: SelectOptions{MaxEpochs: epochs(0)},
				}
				resp, err := c.Select(ctx, req)
				switch {
				case err == nil:
					if r := resp.Results[0]; !r.Truncated || r.Winner == "" {
						t.Errorf("zero-budget success not truncated-with-winner: %+v", r)
					}
				case Retryable(err), errors.Is(err, ErrCanceled):
					// Typed shed/limit or our own cancellation: both fine.
				default:
					t.Errorf("untyped failure under load: %v", err)
				}
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if st := ctrl.Stats(); st.Inflight != 0 || st.QueueLen != 0 {
		t.Fatalf("admission state leaked after hammer: %+v", st)
	}
}
