package main

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"twophase/internal/api"
	"twophase/internal/shard"
)

// echoAPI is a minimal backend for gateway lifecycle tests.
type echoAPI struct{ instance string }

func (e *echoAPI) Select(_ context.Context, req *api.SelectRequest) (*api.SelectResponse, error) {
	resp := &api.SelectResponse{APIVersion: api.Version, Task: req.Task, Strategy: "two-phase",
		Results: make([]api.TargetResult, len(req.Targets))}
	for i, t := range req.Targets {
		resp.Results[i] = api.TargetResult{Target: t, Winner: "w"}
	}
	return resp, nil
}

func (e *echoAPI) Stats(context.Context) (*api.Stats, error) {
	return &api.Stats{APIVersion: api.Version}, nil
}

func TestParseBackends(t *testing.T) {
	got, err := shard.ParseBackends(" http://a:1/, http://b:2 ,")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"http://a:1", "http://b:2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseBackends = %v", got)
	}
	for _, bad := range []string{"", "   ,", "a:1", "ftp://x"} {
		if _, err := shard.ParseBackends(bad); err == nil {
			t.Fatalf("ParseBackends(%q) accepted", bad)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	base := config{addr: "127.0.0.1:0", backends: "http://127.0.0.1:1",
		replicas: 1, probeInterval: time.Second}
	for _, mutate := range []func(*config){
		func(c *config) { c.backends = "" },
		func(c *config) { c.replicas = 0 },
		func(c *config) { c.probeInterval = 0 },
	} {
		cfg := base
		mutate(&cfg)
		if err := run(context.Background(), cfg, nil); err == nil {
			t.Fatalf("bad config accepted: %+v", cfg)
		}
	}
}

// TestGatewayLifecycle boots a real gateway over two live backends on an
// ephemeral port, serves a selection through it, and shuts down cleanly.
func TestGatewayLifecycle(t *testing.T) {
	b1 := httptest.NewServer(api.NewHandlerWith(&echoAPI{}, api.HandlerOptions{Instance: "b1"}))
	defer b1.Close()
	b2 := httptest.NewServer(api.NewHandlerWith(&echoAPI{}, api.HandlerOptions{Instance: "b2"}))
	defer b2.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := config{
		addr:          "127.0.0.1:0",
		backends:      b1.URL + "," + b2.URL,
		replicas:      2,
		seed:          42,
		probeInterval: 20 * time.Millisecond,
		instance:      "gw",
		shutdownGrace: 5 * time.Second,
	}
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, ready) }()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("gateway exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("gateway never became ready")
	}
	c := api.NewClient("http://"+addr, nil)

	// Healthz flips ok once a probe round has seen a live backend.
	deadline := time.After(5 * time.Second)
	for {
		if h, err := c.Healthz(context.Background()); err == nil {
			if h.Instance != "gw" {
				t.Fatalf("gateway health instance = %q", h.Instance)
			}
			break
		}
		select {
		case err := <-done:
			t.Fatalf("gateway died: %v", err)
		case <-deadline:
			t.Fatal("gateway never reported ready")
		case <-time.After(10 * time.Millisecond):
		}
	}

	resp, err := c.Select(context.Background(), &api.SelectRequest{Task: "nlp", Targets: []string{"t0", "t1", "t2"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 0 || len(resp.Results) != 3 {
		t.Fatalf("select through gateway: %+v", resp)
	}
	for _, tr := range resp.Results {
		if tr.Backend != "b1" && tr.Backend != "b2" {
			t.Fatalf("target %s served by unknown backend %q", tr.Target, tr.Backend)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Gateway == nil || st.Gateway.Backends != 2 {
		t.Fatalf("gateway stats over HTTP: %+v", st)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gateway did not shut down within the grace window")
	}
}
