package chaos_test

// The fleet's fault-free multi-process contracts, on the same harness as
// the storms (spawn, freePorts, onFreshPorts):
//
//  1. TestEndToEndShardedFleet boots 3 backends over one shared store
//     plus a gateway and proves routing stability (a (task, seed) key
//     lands on the backend an in-process ring predicts, on every
//     request), failover (after a SIGKILL the key serves from the next
//     replica with no client-visible error and a bit-identical report)
//     and observability (the gateway's /v1/stats shows the failover, the
//     down event and per-backend counters).
//  2. TestEndToEndArtifactColdStart boots 2 backends with SEPARATE stores
//     on one ring: backend A warms a world, and backend B, which never
//     built anything, serves it by fetching A's artifacts over
//     /v1/artifacts, with zero local offline builds and a bit-identical
//     report — the O(W×B) → O(W) fleet cold start as an executable check.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"twophase/internal/api"
	"twophase/internal/shard"
)

// mustSelect is trySelect that fails the test on a request error, a
// failed target or a degraded serve. strip clears the degradation flags
// so the storms can compare degraded and clean serves; these fault-free
// tests must see none, or a failover that served a lifecycle fallback
// would pass as invisible.
func mustSelect(t *testing.T, c *api.Client, k worldKey) *api.SelectResponse {
	t.Helper()
	resp, err := trySelect(c, k)
	if err != nil {
		t.Fatalf("select %s: %v", k, err)
	}
	if resp.Failed != 0 || resp.Results[0].Error != "" {
		t.Fatalf("select %s failed in-body: %+v", k, resp.Results[0])
	}
	if resp.Degraded != 0 || resp.Results[0].Degraded {
		t.Fatalf("select %s served degraded: %+v", k, resp.Results[0])
	}
	return resp
}

// TestFleetPortsRedrawnOnce: a boot that lost a port runs once more on a
// new draw of as many ports.
func TestFleetPortsRedrawnOnce(t *testing.T) {
	var draws [][]int
	got := onFreshPorts(t, 3, func(ports []int) (int, error) {
		draws = append(draws, ports)
		if len(draws) == 1 {
			return 0, fmt.Errorf("backend-1 exited: %w", errPortTaken)
		}
		return len(draws), nil
	})
	if got != 2 || len(draws) != 2 || len(draws[1]) != 3 {
		t.Fatalf("boot returned %d after draws %v, want a second boot on 3 ports", got, draws)
	}
}

func TestEndToEndShardedFleet(t *testing.T) {
	requireChaosPrereqs(t)

	// Three fleet-aware backends over one shared artifact store (failover
	// reloads, never retrains) and a gateway with 2 replicas per key.
	storeDir := t.TempDir()
	const backendCount = 3
	f := bootFleet(t, t.TempDir(), fleetSpec{
		stores:           []string{storeDir, storeDir, storeDir},
		backendSchedules: []string{"", "", ""},
	})
	backends, urls, c := f.backends, f.urls, f.client
	instances := make(map[string]string, backendCount) // url -> instance
	for _, b := range backends {
		instances[b.url] = b.name
	}

	// An in-process ring over the same URLs predicts the owners the
	// gateway process must pick: consistent hashing is deterministic
	// across processes or it is useless.
	ring, err := shard.NewRing(urls, shard.DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}

	// --- 1. Routing stability ---------------------------------------
	const task, target = "nlp", "tweet_eval"
	seeds := []uint64{0, 1, 2}
	baseline := make(map[uint64]*api.SelectResponse, len(seeds))
	for _, seed := range seeds {
		want := instances[ring.Owners(shard.RouteKey(task, seed), 2)[0]]
		for round := 0; round < 3; round++ {
			resp := mustSelect(t, c, worldKey{seed, target})
			got := resp.Results[0].Backend
			if got != want {
				t.Fatalf("seed %d round %d served by %q, ring predicts primary %q", seed, round, got, want)
			}
			if round == 0 {
				baseline[seed] = resp
			} else if !reflect.DeepEqual(strip(resp), strip(baseline[seed])) {
				t.Fatalf("seed %d drifted across identical requests:\n%+v\nvs\n%+v", seed, resp, baseline[seed])
			}
		}
	}

	// --- 2. Failover after SIGKILL ----------------------------------
	// Kill seed 0's primary owner outright (no drain, no goodbye).
	killSeed := seeds[0]
	owners := ring.Owners(shard.RouteKey(task, killSeed), 2)
	primary, secondary := instances[owners[0]], instances[owners[1]]
	var victim *proc
	for _, b := range backends {
		if instances[b.url] == primary {
			victim = b
		}
	}
	victim.kill()

	// Every request must keep succeeding — the first ones pay an inline
	// failover (probes haven't noticed yet), later ones route around the
	// corpse. Reports stay bit-identical to the pre-kill baseline.
	for round := 0; round < 4; round++ {
		resp := mustSelect(t, c, worldKey{killSeed, target})
		if got := resp.Results[0].Backend; got != secondary {
			t.Fatalf("post-kill round %d served by %q, want secondary %q", round, got, secondary)
		}
		if !reflect.DeepEqual(strip(resp), strip(baseline[killSeed])) {
			t.Fatalf("failover changed the report:\n%+v\nvs baseline\n%+v", resp, baseline[killSeed])
		}
	}
	// Keys owned by surviving backends are untouched by the kill.
	for _, seed := range seeds[1:] {
		if instances[ring.Owners(shard.RouteKey(task, seed), 2)[0]] == primary {
			continue
		}
		resp := mustSelect(t, c, worldKey{seed, target})
		if !reflect.DeepEqual(strip(resp), strip(baseline[seed])) {
			t.Fatalf("seed %d disturbed by unrelated backend death", seed)
		}
	}

	// --- 3. Gateway observability -----------------------------------
	// Wait for the probe loop to register the death (100ms interval,
	// threshold 2), then assert the stats document tells the story.
	var st *api.Stats
	deadline := time.After(15 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		st, err = c.Stats(ctx)
		cancel()
		if err != nil {
			t.Fatalf("gateway stats: %v", err)
		}
		if st.Gateway != nil && st.Gateway.Alive == backendCount-1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("gateway never marked the killed backend down: %+v", st.Gateway)
		case <-time.After(50 * time.Millisecond):
		}
	}
	g := st.Gateway
	if g.Failovers < 1 {
		t.Fatalf("no failover counted: %+v", g)
	}
	if g.Backends != backendCount || g.Replicas != 2 {
		t.Fatalf("ring shape: %+v", g)
	}
	var downEvents, requests int64
	aliveWithStats := 0
	for _, bs := range g.BackendStats {
		downEvents += bs.DownEvents
		requests += bs.Requests
		if bs.Instance != instances[bs.URL] && bs.Instance != "" {
			t.Fatalf("backend %s reported instance %q, want %q", bs.URL, bs.Instance, instances[bs.URL])
		}
		if bs.Alive && bs.Stats != nil {
			aliveWithStats++
		}
	}
	if downEvents < 1 {
		t.Fatalf("no down event recorded: %+v", g.BackendStats)
	}
	if requests == 0 {
		t.Fatal("per-backend request counters all zero")
	}
	if aliveWithStats != backendCount-1 {
		t.Fatalf("aggregated stats missing for live backends: %+v", g.BackendStats)
	}
	// The fleet-level sums aggregate the survivors' serving stats. (Not
	// OfflineBuilds: with a shared store the killed primary may have been
	// the only backend that executed a real build — survivors resolve
	// worlds by loading its artifacts, which counts as a cache build.)
	if st.Cache.Builds < 1 || st.TotalEpochs <= 0 {
		t.Fatalf("fleet sums empty: %+v", st)
	}
}

func TestEndToEndArtifactColdStart(t *testing.T) {
	requireChaosPrereqs(t)
	bin := bins(t)

	const task, target = "nlp", "tweet_eval"

	// Reserve both ports up front: the ring hashes the full URL list, so
	// every process (and this test) must agree on it before boot.
	type pair struct {
		a, b *proc
		seed uint64
	}
	f := onFreshPorts(t, 2, func(ports []int) (f pair, err error) {
		logDir := t.TempDir()
		urlA := "http://127.0.0.1:" + strconv.Itoa(ports[0])
		urlB := "http://127.0.0.1:" + strconv.Itoa(ports[1])
		nodes := urlA + "," + urlB

		// Pick a seed owned by A under replicas=1, so the warm spec lands
		// entirely on A and B provably cannot have built the world itself.
		ring, err := shard.NewRing([]string{urlA, urlB}, shard.DefaultVNodes)
		if err != nil {
			return f, err
		}
		for ; f.seed < 64; f.seed++ {
			if ring.Owners(shard.RouteKey(task, f.seed), 1)[0] == urlA {
				break
			}
		}
		if f.seed == 64 {
			return f, errors.New("no seed in 0..63 owned by backend A — ring is broken")
		}
		warm := fmt.Sprintf("%s:%d", task, f.seed)

		// Both backends get the SAME -warm spec; ring-aware filtering must
		// reduce it to "everything" on A and "nothing" on B.
		spawnBackend := func(name string, port int, selfURL string) *proc {
			args := append([]string{
				"-addr", "127.0.0.1:" + strconv.Itoa(port),
				"-instance", name,
				"-store", t.TempDir(), // private store: nothing shared via disk
				"-warm", warm,
				"-backends", nodes,
				"-self", selfURL,
				"-replicas", "1",
			}, sizeFlags...)
			p := spawn(t, name, bin["apiserver"], logDir, args...)
			p.url = selfURL
			return p
		}
		f.a = spawnBackend("backend-a", ports[0], urlA)
		f.b = spawnBackend("backend-b", ports[1], urlB)
		// A reports ready only after its warm build; B owns no warm keys
		// and must come up without building anything.
		if err = f.a.healthy(120 * time.Second); err == nil {
			err = f.b.healthy(15 * time.Second)
		}
		if err != nil {
			f.a.kill()
			f.b.kill()
		}
		return f, err
	})
	a, b, seed := f.a, f.b, f.seed

	ctx := context.Background()
	ca, cb := api.NewClient(a.url, nil), api.NewClient(b.url, nil)

	// B serves A's world: the artifacts arrive over the ring, not from a
	// local build, and the report is bit-identical to the owner's.
	fromB := mustSelect(t, cb, worldKey{seed, target})
	if fromB.OfflineBuilds != 0 {
		t.Fatalf("backend B built %d worlds; artifact fetch should have made it 0", fromB.OfflineBuilds)
	}
	fromA := mustSelect(t, ca, worldKey{seed, target})
	if !reflect.DeepEqual(strip(fromA), strip(fromB)) {
		t.Fatalf("fetched world diverges from built world:\n%+v\nvs\n%+v", fromB, fromA)
	}

	stA, err := ca.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := cb.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A built its owned world exactly once (the ring-aware warmup),
	// fetched nothing, and logged no fetch failure — being a world's
	// only replica is not a distribution failure.
	if stA.OfflineBuilds != 1 || stA.Artifacts == nil || stA.Artifacts.Fetches != 0 {
		t.Fatalf("backend A stats: %+v artifacts %+v, want 1 build / 0 fetches", stA, stA.Artifacts)
	}
	if stA.Artifacts.FetchFailures != 0 {
		t.Fatalf("backend A logged %d fetch failures warming its own world, want 0", stA.Artifacts.FetchFailures)
	}
	// B built nothing, fetched the world's documents (matrix + recall),
	// and fell back to zero local builds.
	if stB.OfflineBuilds != 0 || stB.Artifacts == nil {
		t.Fatalf("backend B stats: %+v, want 0 builds + artifacts block", stB)
	}
	if stB.Artifacts.Fetches == 0 || stB.Artifacts.FallbackBuilds != 0 {
		t.Fatalf("backend B artifacts: %+v, want fetches > 0 and no fallback builds", stB.Artifacts)
	}

	// The fetched artifacts persisted into B's own store: a repeat
	// request is served resident (no new fetches), and B can now answer
	// /v1/artifacts for the world itself — distribution is transitive.
	again := mustSelect(t, cb, worldKey{seed, target})
	if !reflect.DeepEqual(strip(again), strip(fromB)) {
		t.Fatal("backend B drifted across identical requests")
	}
	stB2, err := cb.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stB2.Artifacts.Fetches != stB.Artifacts.Fetches {
		t.Fatalf("resident world re-fetched: %d -> %d", stB.Artifacts.Fetches, stB2.Artifacts.Fetches)
	}
	key := shard.RouteKey(task, seed)
	if data, err := cb.FetchArtifact(ctx, "matrices", key); err != nil || len(data) == 0 {
		t.Fatalf("backend B cannot re-serve the fetched artifact: %v", err)
	}
	wantDoc, err := ca.FetchArtifact(ctx, "matrices", key)
	if err != nil {
		t.Fatal(err)
	}
	gotDoc, err := cb.FetchArtifact(ctx, "matrices", key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantDoc, gotDoc) {
		t.Fatal("artifact bytes mutated in transit: A's and B's stored documents differ")
	}
}
