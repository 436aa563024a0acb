package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/lifecycle"
	"twophase/internal/service"
)

var tinySizes = datahub.Sizes{Train: 60, Val: 40, Test: 48}

func newTestDispatcher(t *testing.T) (*Dispatcher, *service.Service) {
	t.Helper()
	svc, err := service.New(service.Options{Base: core.Options{Seed: 42, Sizes: tinySizes}})
	if err != nil {
		t.Fatal(err)
	}
	return NewDispatcher(svc, 42), svc
}

// warm makes the base-seed NLP world resident, so a test's request is
// served from it instead of waiting on its build.
func warm(t *testing.T, svc *service.Service) {
	t.Helper()
	if err := svc.Warm(context.Background(), []lifecycle.Key{{Task: datahub.TaskNLP, Seed: 42}}); err != nil {
		t.Fatal(err)
	}
}

func TestDispatcherValidation(t *testing.T) {
	d, _ := newTestDispatcher(t)
	ctx := context.Background()
	cases := []struct {
		name string
		req  *SelectRequest
	}{
		{"nil request", nil},
		{"missing task", &SelectRequest{Targets: []string{"x"}}},
		{"no targets", &SelectRequest{Task: datahub.TaskNLP}},
		{"empty target", &SelectRequest{Task: datahub.TaskNLP, Targets: []string{""}}},
		{"bad strategy", &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, SelectOptions: SelectOptions{Strategy: "zigzag"}}},
		{"negative deadline", &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, SelectOptions: SelectOptions{DeadlineMS: -1}}},
		{"deadline past a Duration", &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, SelectOptions: SelectOptions{DeadlineMS: 9_223_372_036_855}}},
		{"deadline 1<<62", &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, SelectOptions: SelectOptions{DeadlineMS: 1 << 62}}},
	}
	for _, tc := range cases {
		_, err := d.Select(ctx, tc.req)
		if !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: got %v, want ErrBadRequest", tc.name, err)
		}
		if HTTPStatus(err) != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, HTTPStatus(err))
		}
	}
}

// TestDeadlineBound: the largest deadline_ms a time.Duration holds is
// accepted and resolves to a deadline in the future; one more millisecond
// would wrap the dispatcher's product into the past, so it is refused.
func TestDeadlineBound(t *testing.T) {
	req := &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, SelectOptions: SelectOptions{DeadlineMS: 9_223_372_036_854}}
	if err := req.Validate(); err != nil {
		t.Fatalf("deadline_ms %d refused: %v", req.DeadlineMS, err)
	}
	start := time.Now()
	if !start.Add(time.Duration(req.DeadlineMS) * time.Millisecond).After(start) {
		t.Fatalf("deadline_ms %d resolves to a deadline in the past", req.DeadlineMS)
	}
	req.DeadlineMS++
	if err := req.Validate(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("deadline_ms %d: got %v, want ErrBadRequest", req.DeadlineMS, err)
	}
}

func TestDispatcherNotFoundMapping(t *testing.T) {
	d, _ := newTestDispatcher(t)
	ctx := context.Background()

	_, err := d.Select(ctx, &SelectRequest{Task: "audio", Targets: []string{"x"}})
	if !errors.Is(err, ErrUnknownTask) || HTTPStatus(err) != http.StatusNotFound {
		t.Fatalf("unknown task: err %v status %d, want ErrUnknownTask / 404", err, HTTPStatus(err))
	}

	// Single-target form is an RPC: the one failure is the request error.
	_, err = d.Select(ctx, &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"no-such"}})
	if !errors.Is(err, ErrUnknownTarget) || HTTPStatus(err) != http.StatusNotFound {
		t.Fatalf("unknown target: err %v status %d, want ErrUnknownTarget / 404", err, HTTPStatus(err))
	}

	// Batch form reports the failure per result and keeps the request OK.
	resp, err := d.Select(ctx, &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval", "no-such"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 1 || resp.Results[1].ErrorCode != CodeUnknownTarget {
		t.Fatalf("batch partial failure misreported: %+v", resp)
	}
	if resp.Results[0].Winner == "" {
		t.Fatalf("healthy batch member has no winner: %+v", resp.Results[0])
	}
}

func TestStrategyDispatch(t *testing.T) {
	d, _ := newTestDispatcher(t)
	ctx := context.Background()
	target := []string{"tweet_eval"}

	two, err := d.Select(ctx, &SelectRequest{Task: datahub.TaskNLP, Targets: target})
	if err != nil {
		t.Fatal(err)
	}
	if two.Strategy != string(core.StrategyTwoPhase) || two.Results[0].Recalled == 0 {
		t.Fatalf("two-phase response missing recall: %+v", two)
	}

	sh, err := d.Select(ctx, &SelectRequest{Task: datahub.TaskNLP, Targets: target, SelectOptions: SelectOptions{Strategy: "sh"}})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Strategy != "sh" || sh.Results[0].Recalled != 0 || sh.Results[0].Winner == "" {
		t.Fatalf("sh response wrong: %+v", sh.Results[0])
	}

	bf, err := d.Select(ctx, &SelectRequest{Task: datahub.TaskNLP, Targets: target, SelectOptions: SelectOptions{Strategy: "bf"}})
	if err != nil {
		t.Fatal(err)
	}
	if bf.Results[0].Winner == "" || bf.TotalEpochs <= sh.TotalEpochs {
		t.Fatalf("bf must cost more than sh: bf=%v sh=%v", bf.TotalEpochs, sh.TotalEpochs)
	}

	ens, err := d.Select(ctx, &SelectRequest{Task: datahub.TaskNLP, Targets: target, SelectOptions: SelectOptions{Strategy: "ensemble"}})
	if err != nil {
		t.Fatal(err)
	}
	r := ens.Results[0]
	if len(r.Members) != core.DefaultEnsembleK || r.Winner != r.Members[0] || r.Recalled == 0 {
		t.Fatalf("ensemble response wrong: %+v", r)
	}

	// Identical requests on a warm service report identical batch cost:
	// the response sums this request's ledgers, not the service total.
	again, err := d.Select(ctx, &SelectRequest{Task: datahub.TaskNLP, Targets: target})
	if err != nil {
		t.Fatal(err)
	}
	if again.TotalEpochs != two.TotalEpochs {
		t.Fatalf("warm-service batch cost drifted: %v vs %v", again.TotalEpochs, two.TotalEpochs)
	}
}

// TestSelectCanceled proves a dead client aborts an in-flight selection:
// the request comes back ErrCanceled and no selection epochs are charged.
func TestSelectCanceled(t *testing.T) {
	d, svc := newTestDispatcher(t)
	// Warm the framework so cancellation hits the selection, not the
	// build wait.
	warm(t, svc)
	costBefore := svc.Cost()
	before := costBefore.Total()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := d.Select(ctx, &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if HTTPStatus(err) != statusClientClosedRequest {
		t.Fatalf("status %d, want %d", HTTPStatus(err), statusClientClosedRequest)
	}
	costAfter := svc.Cost()
	if after := costAfter.Total(); after != before {
		t.Fatalf("canceled request still charged %v epochs", after-before)
	}

	// Batch form: cancellation is a request-level failure too.
	_, err = d.Select(ctx, &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval", "super_glue/boolq"}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("batch: got %v, want ErrCanceled", err)
	}
}

// TestHTTPRoundTrip runs the same requests through the in-process
// dispatcher and through a real server + client, asserting bit-identical
// results and sentinel preservation across the wire.
func TestHTTPRoundTrip(t *testing.T) {
	d, _ := newTestDispatcher(t)
	ts := httptest.NewServer(NewHandlerWith(d, HandlerOptions{}))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	req := &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval", "super_glue/boolq"}}
	direct, err := d.Select(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := c.Select(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Results, wire.Results) {
		t.Fatalf("HTTP results differ from in-process:\n%+v\nvs\n%+v", direct.Results, wire.Results)
	}
	if wire.APIVersion != Version || wire.Seed != 42 {
		t.Fatalf("response header fields wrong: %+v", wire)
	}

	// Typed errors survive the round trip.
	if _, err := c.Select(ctx, &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"no-such"}}); !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("wire error lost its sentinel: %v", err)
	}
	if _, err := c.Select(ctx, &SelectRequest{Task: "audio", Targets: []string{"x"}}); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("wire unknown-task lost its sentinel: %v", err)
	}
	if _, err := c.Select(ctx, &SelectRequest{Task: datahub.TaskNLP}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("wire bad-request lost its sentinel: %v", err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.OfflineBuilds != 1 || st.TotalEpochs <= 0 || st.PersistDegraded {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestHandlerHTTPSurface(t *testing.T) {
	d, _ := newTestDispatcher(t)
	ts := httptest.NewServer(NewHandlerWith(d, HandlerOptions{}))
	defer ts.Close()

	res, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var h Health
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %v %+v", err, h)
	}

	// Malformed JSON body → 400 with a machine-readable code.
	res, err = http.Post(ts.URL+"/v1/select", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d, want 400", res.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil || e.Code != CodeBadRequest {
		t.Fatalf("error body: %v %+v", err, e)
	}

	// The targets route answers the registry's catalog; an unknown task
	// is a typed 404.
	want, _ := datahub.TargetNames(datahub.TaskCV)
	if doc := listTargets(t, ts.URL, datahub.TaskCV); doc.APIVersion != Version || doc.Task != datahub.TaskCV || !reflect.DeepEqual(doc.Targets, want) {
		t.Fatalf("cv targets: %+v, want %v", doc, want)
	}
	res, err = http.Get(ts.URL + "/v1/tasks/audio/targets")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown task status %d, want 404", res.StatusCode)
	}
}

// TestStrayWorkersFieldIsIgnored: training width is the server's setting,
// not a request field, so a body still carrying "workers" — even the -1
// that used to be a 400 — is served like the same body without it.
func TestStrayWorkersFieldIsIgnored(t *testing.T) {
	d, _ := newTestDispatcher(t)
	ts := httptest.NewServer(NewHandlerWith(d, HandlerOptions{}))
	defer ts.Close()
	post := func(body string) SelectResponse {
		t.Helper()
		res, err := http.Post(ts.URL+"/v1/select", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var doc SelectResponse
		if err := json.NewDecoder(res.Body).Decode(&doc); err != nil || res.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", body, res.StatusCode, err)
		}
		return doc
	}
	got := post(`{"task":"nlp","targets":["tweet_eval"],"workers":-1}`)
	want := post(`{"task":"nlp","targets":["tweet_eval"]}`)
	if got.Results[0].Winner == "" || !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("stray workers field changed the answer:\n%+v\nvs\n%+v", got.Results, want.Results)
	}
}
