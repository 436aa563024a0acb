package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"twophase/internal/artifact"
	"twophase/internal/core"
	"twophase/internal/service"
)

// newStoreDispatcher builds a dispatcher over a store-backed service and
// serves one selection so the store holds real artifacts.
func newStoreDispatcher(t *testing.T) (*Dispatcher, *service.Service) {
	t.Helper()
	svc, err := service.New(service.Options{
		Base:     core.Options{Seed: 42, Sizes: tinySizes},
		StoreDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(svc, 42)
	if _, err := d.Select(context.Background(), &SelectRequest{Task: "nlp", Targets: []string{"tweet_eval"}}); err != nil {
		t.Fatal(err)
	}
	return d, svc
}

// TestArtifactEndpoint exercises the distribution endpoint end to end:
// a stored world's matrix document round-trips the wire verbatim and
// misses are typed unknown_artifact 404s.
func TestArtifactEndpoint(t *testing.T) {
	d, svc := newStoreDispatcher(t)
	ts := httptest.NewServer(NewHandlerWith(d, HandlerOptions{Artifacts: svc.Store()}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	want, err := svc.Store().OpenArtifact("matrices", "nlp-seed42")
	if err != nil {
		t.Fatalf("store has no matrix artifact: %v", err)
	}
	data, err := c.FetchArtifact(ctx, "matrices", "nlp-seed42")
	if err != nil {
		t.Fatalf("fetch: data=%d err=%v", len(data), err)
	}
	if !reflect.DeepEqual(data, want) {
		t.Fatal("fetched bytes differ from the store's document")
	}
	if _, err := artifact.Verify(data); err != nil {
		t.Fatalf("fetched bytes fail verification: %v", err)
	}
	if m, err := artifact.DecodeMatrix(data); err != nil || m == nil {
		t.Fatalf("fetched matrix does not decode: %v", err)
	}

	// The recall document is served too.
	if data, err := c.FetchArtifact(ctx, "recalls", "nlp-seed42"); err != nil {
		t.Fatalf("recall fetch: %v", err)
	} else if a, err := artifact.DecodeRecall(data); err != nil || a == nil {
		t.Fatalf("fetched recall does not decode: %v", err)
	}

	// Misses are typed 404s on every axis: unknown name, unknown kind.
	for _, tc := range [][2]string{{"matrices", "nlp-seed99"}, {"tables", "nlp-seed42"}} {
		_, err := c.FetchArtifact(ctx, tc[0], tc[1])
		if !errors.Is(err, ErrUnknownArtifact) {
			t.Errorf("fetch %s/%s: got %v, want ErrUnknownArtifact", tc[0], tc[1], err)
		}
		if HTTPStatus(err) != http.StatusNotFound || Code(err) != CodeUnknownArtifact {
			t.Errorf("fetch %s/%s: status %d code %s, want 404 unknown_artifact", tc[0], tc[1], HTTPStatus(err), Code(err))
		}
	}
}

// TestFetchArtifactCapsBody verifies the client refuses a response that
// advertises more than the artifact size cap instead of buffering it.
func TestFetchArtifactCapsBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "2147483648") // 2 GiB
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	_, err := NewClient(ts.URL, nil).FetchArtifact(context.Background(), "matrices", "nlp-seed42")
	if err == nil {
		t.Fatal("2 GiB artifact response accepted")
	}
}

// TestFetchArtifactErrorsStayTyped: the artifact route keeps the client's
// typed-error contract for refusals that are not contract envelopes — a
// raw 500 (crashed proxy, injected fault) and an envelope whose code this
// client does not know both surface as ErrInternal, like every other call.
func TestFetchArtifactErrorsStayTyped(t *testing.T) {
	for name, body := range map[string]string{
		"raw 500":      "<html>upstream exploded</html>",
		"unknown code": `{"error":"from the future","code":"teapot"}`,
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, body)
		}))
		_, err := NewClient(ts.URL, nil).FetchArtifact(context.Background(), "matrices", "nlp-seed42")
		ts.Close()
		if !errors.Is(err, ErrInternal) || Code(err) != CodeInternal {
			t.Errorf("%s: err = %v (code %q), want typed ErrInternal", name, err, Code(err))
		}
	}
}

// TestArtifactEndpointNotMounted verifies a handler with no artifact
// source 404s the route rather than panicking on a nil interface.
func TestArtifactEndpointNotMounted(t *testing.T) {
	d, _ := newTestDispatcher(t)
	ts := httptest.NewServer(NewHandlerWith(d, HandlerOptions{}))
	defer ts.Close()
	res, err := http.Get(ts.URL + "/v1/artifacts/matrices/nlp-seed42")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", res.StatusCode)
	}
}

// TestArtifactStatsOnStats verifies the dispatcher surfaces artifact
// counters exactly when a store is configured.
func TestArtifactStatsOnStats(t *testing.T) {
	d, _ := newStoreDispatcher(t)
	st, err := d.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Artifacts == nil {
		t.Fatal("store-backed stats missing artifacts block")
	}
	if st.Artifacts.FallbackBuilds != 1 {
		t.Fatalf("fallback_builds = %d, want 1 (cold store forced one build)", st.Artifacts.FallbackBuilds)
	}

	plain, _ := newTestDispatcher(t)
	st, err = plain.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Artifacts != nil {
		t.Fatal("storeless stats should omit the artifacts block")
	}
}
