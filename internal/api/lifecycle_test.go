package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/service"
)

// TestSeedRejectedMapping: the admission policy's refusal maps to 403 with
// a machine-readable code, and the sentinel survives the HTTP round trip.
func TestSeedRejectedMapping(t *testing.T) {
	svc, err := service.New(service.Options{
		Base:  core.Options{Seed: 42, Sizes: tinySizes},
		Seeds: service.SeedPolicy{Fixed: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(svc, 42)
	ts := httptest.NewServer(NewHandlerWith(d, HandlerOptions{}))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	seed := uint64(7)
	req := &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, SelectOptions: SelectOptions{Seed: &seed}}
	_, err = d.Select(ctx, req)
	if !errors.Is(err, ErrSeedRejected) {
		t.Fatalf("dispatcher: got %v, want ErrSeedRejected", err)
	}
	if HTTPStatus(err) != http.StatusForbidden || Code(err) != CodeSeedRejected {
		t.Fatalf("mapping: status %d code %q, want 403 / seed_rejected", HTTPStatus(err), Code(err))
	}
	if _, err := c.Select(ctx, req); !errors.Is(err, ErrSeedRejected) {
		t.Fatalf("wire: seed rejection lost its sentinel: %v", err)
	}
	// The rejection never built a world.
	if svc.Builds() != 0 {
		t.Fatalf("rejected seed executed %d builds", svc.Builds())
	}
}

// TestStatsReportsCache: /v1/stats carries the lifecycle cache's
// occupancy and hit/miss/eviction counters.
func TestStatsReportsCache(t *testing.T) {
	svc, err := service.New(service.Options{
		Base:      core.Options{Seed: 42, Sizes: tinySizes},
		CacheSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(svc, 42)
	ts := httptest.NewServer(NewHandlerWith(d, HandlerOptions{}))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	if _, err := d.Select(ctx, &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}}); err != nil {
		t.Fatal(err)
	}
	seed := uint64(7)
	if _, err := d.Select(ctx, &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, SelectOptions: SelectOptions{Seed: &seed}}); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cs := st.Cache
	if cs.Capacity != 1 || cs.Resident != 1 || cs.InUse != 0 {
		t.Fatalf("cache occupancy: %+v", cs)
	}
	if cs.Evictions != 1 || cs.Misses != 2 || cs.Builds != 2 {
		t.Fatalf("cache counters: %+v", cs)
	}
	if cs.BuildMillis <= 0 {
		t.Fatalf("build duration not reported: %+v", cs)
	}
}

// TestReadyHandlerGatesHealthz: while warmup is in flight, healthz answers
// 503 "warming"; afterwards 200 "ok". The selection endpoints stay open.
func TestReadyHandlerGatesHealthz(t *testing.T) {
	d, _ := newTestDispatcher(t)
	var ready atomic.Bool
	ts := httptest.NewServer(NewHandlerWith(d, HandlerOptions{Ready: ready.Load}))
	defer ts.Close()

	get := func() (int, Health) {
		t.Helper()
		res, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var h Health
		if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return res.StatusCode, h
	}

	if status, h := get(); status != http.StatusServiceUnavailable || h.Status != "warming" {
		t.Fatalf("warming healthz: %d %+v", status, h)
	}
	// Selection is not gated: an early request waits on the build instead
	// of bouncing.
	c := NewClient(ts.URL, ts.Client())
	if _, err := c.Select(context.Background(), &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}}); err != nil {
		t.Fatalf("ungated endpoint failed while warming: %v", err)
	}
	ready.Store(true)
	if status, h := get(); status != http.StatusOK || h.Status != "ok" {
		t.Fatalf("ready healthz: %d %+v", status, h)
	}
}

// listTargets GETs a task family's catalog from a v1 handler.
func listTargets(t *testing.T, base, task string) TargetsResponse {
	t.Helper()
	res, err := http.Get(base + "/v1/tasks/" + task + "/targets")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var doc TargetsResponse
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("list %s: status %d, %v", task, res.StatusCode, err)
	}
	return doc
}

// TestColdBackendListsWithoutBuilding: a cold, storeless backend answers
// the catalog from the registry — no offline build, no resident world.
func TestColdBackendListsWithoutBuilding(t *testing.T) {
	d, _ := newTestDispatcher(t)
	ts := httptest.NewServer(NewHandlerWith(d, HandlerOptions{}))
	defer ts.Close()
	want, _ := datahub.TargetNames(datahub.TaskNLP)
	if doc := listTargets(t, ts.URL, datahub.TaskNLP); !reflect.DeepEqual(doc.Targets, want) {
		t.Fatalf("listed %v, want %v", doc.Targets, want)
	}
	st, err := NewClient(ts.URL, ts.Client()).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.OfflineBuilds != 0 || st.Cache.Resident != 0 || st.Cache.Misses != 0 {
		t.Fatalf("listing touched the world cache: offline_builds %d, cache %+v", st.OfflineBuilds, st.Cache)
	}
}

// TestListingKeepsResidentWorld: under a one-world cache, listing the
// catalog neither builds the base-seed world nor evicts the resident one.
func TestListingKeepsResidentWorld(t *testing.T) {
	svc, err := service.New(service.Options{Base: core.Options{Seed: 42, Sizes: tinySizes}, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(svc, 42)
	ts := httptest.NewServer(NewHandlerWith(d, HandlerOptions{}))
	defer ts.Close()
	seed := uint64(7)
	if _, err := d.Select(context.Background(), &SelectRequest{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"},
		SelectOptions: SelectOptions{Seed: &seed}}); err != nil {
		t.Fatal(err)
	}
	listTargets(t, ts.URL, datahub.TaskNLP)
	if cs := svc.CacheStats(); cs.Resident != 1 || cs.Evictions != 0 || cs.Builds != 1 || svc.Builds() != 1 {
		t.Fatalf("listing moved the cache: %+v, %d offline builds", cs, svc.Builds())
	}
}

// TestLifecycleEvents: every finished build is one lifecycle.built record
// (world, took, err — null on success) and every capacity eviction one
// lifecycle.evicted record naming the world that left.
func TestLifecycleEvents(t *testing.T) {
	events := captureEvents(t)
	svc, err := service.New(service.Options{Base: core.Options{Seed: 42, Sizes: tinySizes}, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(svc, 42)
	ctx := context.Background()
	seed := uint64(7)
	for _, req := range []*SelectRequest{
		{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}},
		{Task: datahub.TaskNLP, Targets: []string{"tweet_eval"}, SelectOptions: SelectOptions{Seed: &seed}},
	} {
		if _, err := d.Select(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Select(ctx, &SelectRequest{Task: "audio", Targets: []string{"x"}}); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown task: %v", err)
	}
	var built []string
	for _, rec := range events("lifecycle.built") {
		if took, _ := rec["took"].(float64); took <= 0 {
			t.Errorf("lifecycle.built without a duration: %v", rec)
		}
		built = append(built, fmt.Sprintf("%v failed=%v", rec["world"], rec["err"] != nil))
	}
	if want := []string{"nlp-seed42 failed=false", "nlp-seed7 failed=false", "audio-seed42 failed=true"}; !reflect.DeepEqual(built, want) {
		t.Fatalf("lifecycle.built records %v, want %v", built, want)
	}
	evicted := events("lifecycle.evicted")
	if len(evicted) != 1 || evicted[0]["world"] != "nlp-seed42" {
		t.Fatalf("lifecycle.evicted records %v, want one for nlp-seed42", evicted)
	}
}
