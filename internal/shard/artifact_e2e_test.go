package shard_test

// Multi-process cold-start smoke for the binary-artifact tier: two
// backends with SEPARATE stores on one ring. Backend A warms a world;
// backend B — which never built anything — serves that world by fetching
// A's artifacts over /v1/artifacts, with zero local offline builds and a
// bit-identical report. This is the O(W×B) → O(W) fleet cold-start claim
// as an executable check.

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"reflect"
	"strconv"
	"testing"
	"time"

	"twophase/internal/api"
	"twophase/internal/shard"
)

func TestEndToEndArtifactColdStart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e harness (builds binaries, spawns 2 processes)")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bins, err := buildBinaries()
	if err != nil {
		t.Fatal(err)
	}

	sizeFlags := []string{"-train", "60", "-val", "40", "-test", "48"}
	const task, target = "nlp", "tweet_eval"

	// Reserve both ports up front: the ring hashes the full URL list, so
	// every process (and this test) must agree on it before boot.
	type fleet struct {
		a, b *proc
		seed uint64
	}
	f := onFreshPorts(t, 2, func(ports []int) (f fleet, err error) {
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
			p := spawn(t, name, bins["apiserver"], logDir, args...)
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
	fromB := selectOne(t, cb, task, target, seed)
	if fromB.OfflineBuilds != 0 {
		t.Fatalf("backend B built %d worlds; artifact fetch should have made it 0", fromB.OfflineBuilds)
	}
	fromA := selectOne(t, ca, task, target, seed)
	if !reflect.DeepEqual(stripRouting(fromA), stripRouting(fromB)) {
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
	again := selectOne(t, cb, task, target, seed)
	if !reflect.DeepEqual(stripRouting(again), stripRouting(fromB)) {
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
