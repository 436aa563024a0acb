package shard_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"twophase/internal/admission"
	"twophase/internal/api"
	"twophase/internal/core"
	"twophase/internal/service"
	"twophase/internal/shard"
)

// clientIDTransport names the client of every request it carries.
type clientIDTransport string

func (id clientIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(api.ClientIDHeader, string(id))
	return http.DefaultTransport.RoundTrip(r)
}

// TestGatewayShedsTypedUnderBurst drives a burst of cheap anytime requests
// into a tightly bounded gateway over two real backends: overload must be
// answered with typed refusals only. Half the burst shares the anonymous
// client's token bucket (429 rate_limited); the other half names a fresh
// client each, passes its bucket and meets the slot pool (503 overloaded).
// Whatever is admitted answers 200, truncated at the zero-epoch budget
// with a winner, and no backend fails behind the gateway's failover.
func TestGatewayShedsTypedUnderBurst(t *testing.T) {
	const seed = uint64(0)
	backends := make([]string, 2)
	for i := range backends {
		svc, err := service.New(service.Options{Base: core.Options{Seed: seed, Sizes: detSizes}})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(api.NewHandlerWith(api.NewDispatcher(svc, seed),
			api.HandlerOptions{Instance: fmt.Sprintf("burst-%d", i)}))
		t.Cleanup(srv.Close)
		backends[i] = srv.URL
	}
	router, err := shard.NewRouter(shard.RouterOptions{
		Backends:      backends,
		Seed:          seed,
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	router.Start(ctx)
	defer router.Close()
	gw := httptest.NewServer(api.NewHandlerWith(router, api.HandlerOptions{
		Admission: admission.NewController(admission.Options{Rate: 5, Burst: 2, MaxInflight: 4, MaxQueue: 4}),
	}))
	defer gw.Close()

	// Two targets per request: the gateway scatters them over both
	// owners, so every admitted request reaches both backends.
	zero := 0
	req := &api.SelectRequest{Task: "nlp", Targets: []string{"tweet_eval", "super_glue/boolq"},
		SelectOptions: api.SelectOptions{MaxEpochs: &zero}}
	const burst = 64
	resps := make([]*api.SelectResponse, burst)
	errs := make([]error, burst)
	var wg sync.WaitGroup
	for i := range burst {
		c := api.NewClient(gw.URL, nil)
		if i%2 == 1 {
			c = api.NewClient(gw.URL, &http.Client{Transport: clientIDTransport(fmt.Sprintf("burst-%d", i))})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = c.Select(ctx, req)
		}()
	}
	wg.Wait()

	outcomes := map[string]int{}
	for i, err := range errs {
		if err != nil {
			outcomes[api.Code(err)]++
			if api.Code(err) == api.CodeInternal {
				t.Errorf("request %d: untyped error: %v", i, err)
			}
			continue
		}
		outcomes["ok"]++
		r := resps[i]
		if r.Failed != 0 || r.Truncated != len(req.Targets) {
			t.Errorf("request %d: want every target truncated, got failed %d truncated %d", i, r.Failed, r.Truncated)
		}
		for _, tr := range r.Results {
			if tr.Winner == "" {
				t.Errorf("request %d: %s truncated without a winner", i, tr.Target)
			}
		}
	}
	t.Logf("outcomes of %d requests: %v", burst, outcomes)
	for _, want := range []string{"ok", api.CodeRateLimited, api.CodeOverloaded} {
		if outcomes[want] == 0 {
			t.Errorf("no %s outcome in the burst: %v", want, outcomes)
		}
	}

	// The refusals ride the gateway's stats document, and the backends
	// behind it served without a failure that failover would hide.
	st, err := api.NewClient(gw.URL, nil).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a := st.Admission; a == nil || a.RateLimited != int64(outcomes[api.CodeRateLimited]) || a.Shed != int64(outcomes[api.CodeOverloaded]) {
		t.Errorf("admission stats %+v disagree with the outcomes %v", st.Admission, outcomes)
	}
	for _, b := range st.Gateway.BackendStats {
		if b.Requests == 0 || b.Failures != 0 {
			t.Errorf("backend %s: %d requests, %d failures; want some and none", b.URL, b.Requests, b.Failures)
		}
	}
}
