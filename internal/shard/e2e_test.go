package shard_test

// The multi-process end-to-end harness: every future distributed change
// regression-tests against this file. It builds the real apiserver and
// gateway binaries, boots a 3-backend fleet plus a gateway as separate OS
// processes on ephemeral ports, and proves the sharding tier's contract:
//
//  1. routing stability — the same (task, seed) key lands on the same
//     backend process on every request, and on exactly the backend the
//     ring predicts in-process (cross-process determinism of the ring);
//  2. failover — after SIGKILLing a backend, its keys serve from the next
//     replica with zero client-visible errors and bit-identical reports;
//  3. observability — the gateway's /v1/stats shows the failover, the
//     down event, and aggregated per-backend counters.

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"twophase/internal/api"
	"twophase/internal/shard"
)

// binDir holds the compiled binaries' temp directory so TestMain can
// reclaim it — sync.OnceValues outlives any per-test cleanup scope.
var binDir string

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// buildBinaries compiles the real server binaries once per test run.
var buildBinaries = sync.OnceValues(func() (map[string]string, error) {
	dir, err := os.MkdirTemp("", "twophase-e2e-bin-*")
	if err != nil {
		return nil, err
	}
	binDir = dir
	bins := make(map[string]string, 2)
	for _, cmd := range []string{"apiserver", "gateway"} {
		out := filepath.Join(dir, cmd)
		build := exec.Command("go", "build", "-o", out, "./cmd/"+cmd)
		build.Dir = repoRoot()
		if msg, err := build.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build ./cmd/%s: %v\n%s", cmd, err, msg)
		}
		bins[cmd] = out
	}
	return bins, nil
})

// repoRoot finds the module root from this package's directory.
func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/shard -> repo root
}

// freePorts reserves n ephemeral ports and releases them for child
// processes to bind. Every listener stays open until all n are drawn, so
// the ports of one call are distinct; another process may still take one
// between the release and the child's bind.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports
}

// TestFreePortsDistinct: one draw of 256 ports holds no duplicate.
func TestFreePortsDistinct(t *testing.T) {
	seen := make(map[int]bool)
	for _, p := range freePorts(t, 256) {
		if seen[p] {
			t.Fatalf("port %d drawn twice", p)
		}
		seen[p] = true
	}
}

// proc is one spawned server process.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
}

// spawn starts a binary and registers cleanup; logs go to the test log on
// failure via the per-process log file.
func spawn(t *testing.T, name, bin string, logDir string, args ...string) *proc {
	t.Helper()
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	p := &proc{name: name, cmd: cmd}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
		cmd.Wait()
		logf.Close()
		if t.Failed() {
			if data, err := os.ReadFile(logf.Name()); err == nil {
				t.Logf("---- %s log ----\n%s", name, data)
			}
		}
	})
	return p
}

// waitHealthy polls a server's healthz until ok or the deadline.
func waitHealthy(t *testing.T, url string, timeout time.Duration) {
	t.Helper()
	c := api.NewClient(url, nil)
	deadline := time.After(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := c.Healthz(ctx)
		cancel()
		if err == nil {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("%s never became healthy: %v", url, err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// selectOne issues a single-target request through the gateway.
func selectOne(t *testing.T, c *api.Client, task, target string, seed uint64) *api.SelectResponse {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	s := seed
	resp, err := c.Select(ctx, &api.SelectRequest{Task: task, Targets: []string{target}, SelectOptions: api.SelectOptions{Seed: &s}})
	if err != nil {
		t.Fatalf("select %s/%s seed %d: %v", task, target, seed, err)
	}
	if resp.Failed != 0 || resp.Results[0].Error != "" {
		t.Fatalf("select %s/%s seed %d failed in-body: %+v", task, target, seed, resp.Results[0])
	}
	return resp
}

// stripRouting clears the fields that legitimately differ across serving
// backends (who served, wall time, lifetime build counters), leaving the
// selection outcome that must be bit-identical.
func stripRouting(resp *api.SelectResponse) api.SelectResponse {
	out := *resp
	out.Results = append([]api.TargetResult(nil), resp.Results...)
	for i := range out.Results {
		out.Results[i].Backend = ""
	}
	out.WallMillis = 0
	out.OfflineBuilds = 0
	return out
}

func TestEndToEndShardedFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e harness (builds binaries, spawns 4 processes)")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bins, err := buildBinaries()
	if err != nil {
		t.Fatal(err)
	}

	logDir := t.TempDir()
	storeDir := t.TempDir() // shared artifact store: failover reloads, never retrains
	const backendCount = 3
	sizeFlags := []string{"-train", "60", "-val", "40", "-test", "48"}

	// Boot the backend fleet.
	backends := make([]*proc, backendCount)
	urls := make([]string, backendCount)
	instances := make(map[string]string, backendCount) // url -> instance
	// One draw for the whole fleet; the last port is the gateway's.
	ports := freePorts(t, backendCount+1)
	for i := range backends {
		port := ports[i]
		name := fmt.Sprintf("backend-%d", i)
		args := append([]string{
			"-addr", "127.0.0.1:" + strconv.Itoa(port),
			"-instance", name,
			"-store", storeDir,
		}, sizeFlags...)
		backends[i] = spawn(t, name, bins["apiserver"], logDir, args...)
		backends[i].url = "http://127.0.0.1:" + strconv.Itoa(port)
		urls[i] = backends[i].url
		instances[backends[i].url] = name
	}
	for _, b := range backends {
		waitHealthy(t, b.url, 15*time.Second)
	}

	// Boot the gateway over the fleet.
	gwPort := ports[backendCount]
	gw := spawn(t, "gateway", bins["gateway"], logDir,
		"-addr", "127.0.0.1:"+strconv.Itoa(gwPort),
		"-backends", urls[0]+","+urls[1]+","+urls[2],
		"-replicas", "2",
		"-probe-interval", "100ms",
		"-instance", "gw-e2e",
	)
	gw.url = "http://127.0.0.1:" + strconv.Itoa(gwPort)
	waitHealthy(t, gw.url, 15*time.Second)
	c := api.NewClient(gw.url, nil)

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
			resp := selectOne(t, c, task, target, seed)
			got := resp.Results[0].Backend
			if got != want {
				t.Fatalf("seed %d round %d served by %q, ring predicts primary %q", seed, round, got, want)
			}
			if round == 0 {
				baseline[seed] = resp
			} else if !reflect.DeepEqual(stripRouting(resp), stripRouting(baseline[seed])) {
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
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.cmd.Wait()

	// Every request must keep succeeding — the first ones pay an inline
	// failover (probes haven't noticed yet), later ones route around the
	// corpse. Reports stay bit-identical to the pre-kill baseline.
	for round := 0; round < 4; round++ {
		resp := selectOne(t, c, task, target, killSeed)
		if got := resp.Results[0].Backend; got != secondary {
			t.Fatalf("post-kill round %d served by %q, want secondary %q", round, got, secondary)
		}
		if !reflect.DeepEqual(stripRouting(resp), stripRouting(baseline[killSeed])) {
			t.Fatalf("failover changed the report:\n%+v\nvs baseline\n%+v", resp, baseline[killSeed])
		}
	}
	// Keys owned by surviving backends are untouched by the kill.
	for _, seed := range seeds[1:] {
		if instances[ring.Owners(shard.RouteKey(task, seed), 2)[0]] == primary {
			continue
		}
		resp := selectOne(t, c, task, target, seed)
		if !reflect.DeepEqual(stripRouting(resp), stripRouting(baseline[seed])) {
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
