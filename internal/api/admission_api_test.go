package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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
func (s errAPI) Stats(context.Context) (*Stats, error) { return nil, s.err }

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
		{"canceled", ErrCanceled, ErrCanceled, statusClientClosedRequest, 0},
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
			if got := retryAfter(err); got != tc.retry {
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
func (s okAPI) Stats(context.Context) (*Stats, error) { return &Stats{APIVersion: Version}, nil }

// TestAdmissionMiddlewareRateLimit: the handler's admission gate refuses
// over-rate clients as well-formed 429s keyed by X-Client-Id, each refusal
// is one admission.refused record, health and stats stay ungated, and the
// admission snapshot rides /v1/stats.
func TestAdmissionMiddlewareRateLimit(t *testing.T) {
	events := captureEvents(t)
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
	wantRefused := map[string]any{"client": "alice", "code": CodeRateLimited, "retry_after_ms": float64(e.RetryAfterMS)}
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
	assertRefused(t, events("admission.refused"), wantRefused)
}

// assertRefused checks that exactly one admission.refused record was
// logged and that it carries want's attrs.
func assertRefused(t *testing.T, recs []map[string]any, want map[string]any) {
	t.Helper()
	if len(recs) != 1 {
		t.Fatalf("%d admission.refused records, want 1: %v", len(recs), recs)
	}
	for k, v := range want {
		if recs[0][k] != v {
			t.Fatalf("admission.refused %s = %v, want %v (record %v)", k, recs[0][k], v, recs[0])
		}
	}
}

// TestAdmissionMiddlewareShed: at the concurrency bound with no queue, an
// arrival sheds as a well-formed 503 overloaded carrying Retry-After, and
// one admission.refused record says so.
func TestAdmissionMiddlewareShed(t *testing.T) {
	events := captureEvents(t)
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
	if retryAfter(err) != admission.ShedRetryAfter {
		t.Fatalf("shed retry hint %v, want %v", retryAfter(err), admission.ShedRetryAfter)
	}
	assertRefused(t, events("admission.refused"), map[string]any{"client": "127.0.0.1", "code": CodeOverloaded,
		"retry_after_ms": float64(admission.ShedRetryAfter.Milliseconds())})
	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("held request failed: %v", err)
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
	warm(t, svc)
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
