package chaos_test

// The typed-error contract under injected faults: every fault class the
// schedule grammar can arm must surface to callers as a *typed* refusal
// on every serving path — the direct service call, the in-process
// dispatcher, a single-node HTTP server, and the gateway router. The
// table pins, per class and path, both that the call fails and *how* it
// fails: in process an injected fault keeps its wire code (and its
// faultinject.ErrInjected ancestry); across the HTTP boundary the
// reconstructed error additionally satisfies errors.Is against the
// code's sentinel, because the client rebuilds the sentinel from the
// envelope. The gateway deliberately reshapes retryable backend
// failures: after exhausting the owner set, the terminal refusal wraps
// api.ErrUnavailable — still typed, still retryable.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"twophase/internal/api"
	"twophase/internal/chaos"
	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/faultinject"
	"twophase/internal/service"
	"twophase/internal/shard"
)

var chaosSizes = datahub.Sizes{Train: 60, Val: 40, Test: 48}

const (
	chaosTask   = "nlp"
	chaosTarget = "tweet_eval"
	chaosSeed   = uint64(42)
)

func chaosReq() *api.SelectRequest {
	return &api.SelectRequest{Task: chaosTask, Targets: []string{chaosTarget}}
}

// newService boots a fresh service (empty caches, empty snapshots) over
// the given store directory — or fully in-memory when dir is empty.
func newService(t *testing.T, dir string) *service.Service {
	t.Helper()
	svc, err := service.New(service.Options{
		Base:     core.Options{Seed: chaosSeed, Sizes: chaosSizes},
		StoreDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// prebuiltStore builds the test world once and returns the store
// directory holding its artifacts. Shared read-only by the cases that
// need an artifact on disk to inject a read fault against.
func prebuiltStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	svc := newService(t, dir)
	if _, err := svc.Do(context.Background(), service.Request{Task: chaosTask, Targets: []string{chaosTarget}}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// The four serving paths, each returning the request's error.
const (
	pathDirect     = "direct"
	pathDispatcher = "dispatcher"
	pathHTTP       = "http"
	pathGateway    = "gateway"
)

// servePath runs one request for svc through the named path. The fault
// schedule must already be armed: construction (httptest servers, the
// router) performs no requests, so the first schedule hit is the
// request under test.
func servePath(t *testing.T, path string, svc *service.Service) error {
	t.Helper()
	ctx := context.Background()
	switch path {
	case pathDirect:
		results, err := svc.Do(ctx, service.Request{Task: chaosTask, Targets: []string{chaosTarget}})
		if err != nil {
			return err
		}
		return results[0].Err
	case pathDispatcher:
		_, err := api.NewDispatcher(svc, chaosSeed).Select(ctx, chaosReq())
		return err
	case pathHTTP:
		srv := httptest.NewServer(api.NewHandlerWith(api.NewDispatcher(svc, chaosSeed), api.HandlerOptions{Instance: "chaos-node"}))
		defer srv.Close()
		_, err := api.NewClient(srv.URL, nil).Select(ctx, chaosReq())
		return err
	case pathGateway:
		srv := httptest.NewServer(api.NewHandlerWith(api.NewDispatcher(svc, chaosSeed), api.HandlerOptions{Instance: "chaos-backend"}))
		defer srv.Close()
		r, err := shard.NewRouter(shard.RouterOptions{
			Backends: []string{srv.URL},
			Replicas: 1,
			Seed:     chaosSeed,
			// The gateway's transport is the "transport" fault site, exactly
			// as cmd/gateway wires it.
			HTTPClient: &http.Client{Transport: faultinject.Transport(nil)},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		_, err = r.Select(ctx, chaosReq())
		return err
	default:
		t.Fatalf("unknown path %q", path)
		return nil
	}
}

// TestInjectedFaultsStayTyped is the contract table: one row per
// injectable fault class, asserting on every applicable serving path
// that the refusal is typed — and which type it carries.
func TestInjectedFaultsStayTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real world for the store-read rows")
	}
	shared := prebuiltStore(t)

	cases := []struct {
		name     string
		schedule string
		// store selects the service's backing store: "" for an empty
		// in-memory service (build faults must actually reach a build),
		// "prebuilt" for the shared artifact store (read faults need a
		// file to fail reading).
		store string
		paths []string
		// wantCode is the wire code the error must map to on in-process
		// paths (direct, dispatcher).
		wantCode string
		// wantWire is the sentinel errors.Is must satisfy on the HTTP
		// path, where the client reconstructs it from the envelope.
		wantWire error
		// wantGateway is the sentinel on the gateway path; retryable
		// backend failures surface as ErrUnavailable once the owner set
		// is exhausted.
		wantGateway error
	}{
		{
			name:        "build-err",
			schedule:    "seed=1;build:err#1",
			paths:       []string{pathDirect, pathDispatcher, pathHTTP, pathGateway},
			wantCode:    api.CodeInternal,
			wantWire:    api.ErrInternal,
			wantGateway: api.ErrUnavailable,
		},
		{
			name:        "store-read-err",
			schedule:    "seed=1;store.read:err#1",
			store:       "prebuilt",
			paths:       []string{pathDirect, pathDispatcher, pathHTTP, pathGateway},
			wantCode:    api.CodeInternal,
			wantWire:    api.ErrInternal,
			wantGateway: api.ErrUnavailable,
		},
		{
			// The handler site lives in the HTTP select handler, so only
			// the wire paths traverse it. The panic is recovered by the
			// middleware and rendered as a typed internal 500 — the
			// process (here: the test binary's handler goroutine) lives on.
			name:        "handler-panic",
			schedule:    "seed=1;handler:panic#1",
			paths:       []string{pathHTTP, pathGateway},
			wantWire:    api.ErrInternal,
			wantGateway: api.ErrUnavailable,
		},
		{
			// A reset connection never even reaches the backend; the
			// gateway pays a failed attempt and, with the single owner
			// exhausted, refuses retryably.
			name:        "transport-reset",
			schedule:    "seed=1;transport:reset#1",
			paths:       []string{pathGateway},
			wantGateway: api.ErrUnavailable,
		},
		{
			// A synthetic raw 500 (text/plain, no JSON envelope) must not
			// escape untyped: the client wraps non-contract bodies in a
			// typed internal error, and the gateway retries it like any
			// backend failure.
			name:        "transport-http500",
			schedule:    "seed=1;transport:http500#1",
			paths:       []string{pathGateway},
			wantGateway: api.ErrUnavailable,
		},
	}

	for _, tc := range cases {
		for _, path := range tc.paths {
			t.Run(tc.name+"/"+path, func(t *testing.T) {
				dir := ""
				if tc.store == "prebuilt" {
					dir = shared
				}
				svc := newService(t, dir)
				if err := faultinject.Enable(tc.schedule); err != nil {
					t.Fatal(err)
				}
				defer faultinject.Reset()

				err := servePath(t, path, svc)
				if err == nil {
					t.Fatal("request under injected fault succeeded")
				}
				switch path {
				case pathDirect, pathDispatcher:
					// In process the raw cause is still attached (and coded);
					// the errors.Is guarantee is the *wire* contract, minted
					// where writeError renders the envelope.
					if got := api.Code(err); got != tc.wantCode {
						t.Fatalf("in-process code = %q, want %q (err: %v)", got, tc.wantCode, err)
					}
					if path == pathDirect && !errors.Is(err, faultinject.ErrInjected) {
						t.Fatalf("direct error lost its injected ancestry: %v", err)
					}
				case pathHTTP:
					if !chaos.Typed(err) {
						t.Fatalf("wire refusal is untyped: %v", err)
					}
					if !errors.Is(err, tc.wantWire) {
						t.Fatalf("wire error = %v, want errors.Is(%v)", err, tc.wantWire)
					}
				case pathGateway:
					if !chaos.Typed(err) {
						t.Fatalf("gateway refusal is untyped: %v", err)
					}
					if !errors.Is(err, tc.wantGateway) {
						t.Fatalf("gateway error = %v, want errors.Is(%v)", err, tc.wantGateway)
					}
					if !api.Retryable(err) {
						t.Fatalf("gateway refusal is not retryable: %v", err)
					}
				}
			})
		}
	}
}

// TestDegradedServingHealsAfterDrain drives the degraded-serving loop in
// process: an evicted world whose rebuild fails is served from its
// lifecycle fallback, degraded (flagged on the result, counted on stats)
// instead of refused — and because the entry stays a fallback, the first
// clean request after the schedule drains rebuilds and clears the mark.
func TestDegradedServingHealsAfterDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two real worlds")
	}
	ctx := context.Background()
	svc, err := service.New(service.Options{
		Base:     core.Options{Seed: chaosSeed, Sizes: chaosSizes},
		StoreDir: t.TempDir(),
		// One cache slot: serving the cv world below evicts the nlp
		// framework, so the next nlp request must reload through the
		// store — where the fault is waiting.
		CacheSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	disp := api.NewDispatcher(svc, chaosSeed)

	// Serve nlp cleanly, then evict it from the single cache slot — to a
	// fallback — by serving cv.
	if _, err := disp.Select(ctx, chaosReq()); err != nil {
		t.Fatal(err)
	}
	if _, err := disp.Select(ctx, &api.SelectRequest{Task: "cv", Targets: []string{"food101"}}); err != nil {
		t.Fatal(err)
	}

	// Arm a read fault: the evicted nlp world's reload dies in the store,
	// and the fallback steps in.
	if err := faultinject.Enable("seed=9;store.read:err#2"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	resp, err := disp.Select(ctx, chaosReq())
	if err != nil {
		t.Fatalf("degraded serving refused instead of serving the snapshot: %v", err)
	}
	if !resp.Results[0].Degraded || resp.Degraded != 1 {
		t.Fatalf("degraded serve not flagged on the wire: %+v", resp)
	}
	st, err := disp.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.DegradedWorlds != 1 || st.DegradedServes < 1 {
		t.Fatalf("degraded gauges = worlds %d serves %d, want 1 / ≥1", st.DegradedWorlds, st.DegradedServes)
	}

	// Drain: with the fault gone the next request rebuilds cleanly —
	// degraded was never cached, so nothing sticky survives.
	faultinject.Reset()
	resp, err = disp.Select(ctx, chaosReq())
	if err != nil {
		t.Fatalf("post-drain request failed: %v", err)
	}
	if resp.Results[0].Degraded || resp.Degraded != 0 {
		t.Fatalf("post-drain serve still degraded: %+v", resp)
	}
	if st, err = disp.Stats(ctx); err != nil {
		t.Fatal(err)
	} else if st.DegradedWorlds != 0 {
		t.Fatalf("degraded world gauge did not heal: %d", st.DegradedWorlds)
	}
}
