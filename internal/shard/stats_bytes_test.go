package shard

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twophase/internal/api"
)

// populatedStats is a backend /v1/stats document with every field set, each
// counter a distinct multiple of k so a swapped or dropped field shows.
func populatedStats(k int64) *api.Stats {
	n := int(k)
	persistError := ""
	if k > 1 {
		persistError = "store: write matrices/nlp-seed7.bin: disk full"
	}
	return &api.Stats{
		APIVersion:      api.Version,
		OfflineBuilds:   2 * n,
		TotalEpochs:     3.5 * float64(k),
		TrainEpochs:     5 * n,
		PersistDegraded: k > 1,
		PersistError:    persistError,
		Panics:          7 * k,
		DegradedWorlds:  11 * n,
		DegradedServes:  13 * k,
		FaultFires:      map[string]int64{"store.read:err": 17 * k, "handler:panic": 19 * k},
		Cache: api.CacheStats{
			Capacity: 23 * n, Resident: 29 * n, InUse: 31 * n,
			Hits: 37 * k, Misses: 41 * k, Evictions: 43 * k,
			Builds: 47 * k, BuildFailures: 53 * k, BuildMillis: 59 * k,
		},
		Admission: &api.AdmissionStats{
			Admitted: 61 * k, RateLimited: 67 * k, Shed: 71 * k, Queued: 73 * k,
			Inflight: 79 * n, QueueLen: 83 * n, Clients: 89 * n,
		},
		Artifacts: &api.ArtifactStats{
			Hits: 97 * k, Fetches: 101 * k, FetchFailures: 103 * k, FallbackBuilds: 107 * k,
		},
	}
}

// TestStatsDocumentBytesPinned: a populated /v1/stats document, as a
// backend serves it and as the gateway sums two of them, is byte for byte
// the document of testdata/stats_{backend,gateway}.json — recorded by this
// same test at the commit before the counting packages' structs became the
// wire types (PR 24), and not to be re-recorded without a contract change.
func TestStatsDocumentBytesPinned(t *testing.T) {
	r, backends := newStubFleet(t, 2, RouterOptions{Replicas: 2, Seed: 42})
	backends[0].stats, backends[1].stats = populatedStats(1), populatedStats(1000)
	gw := httptest.NewServer(api.NewHandlerWith(r, api.HandlerOptions{Instance: "gateway"}))
	defer gw.Close()
	for name, base := range map[string]string{"backend": backends[0].srv.URL, "gateway": gw.URL} {
		res, err := http.Get(base + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil || res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s /v1/stats: status %d, err %v", name, res.StatusCode, err)
		}
		got := string(body)
		for i, b := range backends { // the listeners' ports are the only run-to-run difference
			got = strings.ReplaceAll(got, b.srv.URL, fmt.Sprintf("http://backend-%d", i))
		}
		want, err := os.ReadFile(filepath.Join("testdata", "stats_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s /v1/stats moved on the wire:\n--- got\n%s--- want\n%s", name, got, want)
		}
	}
}
