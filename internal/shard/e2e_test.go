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
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
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
	name   string
	url    string
	cmd    *exec.Cmd
	logf   *os.File
	exited chan struct{} // closed once the child is reaped
}

// spawn starts a binary and registers cleanup; logs go to the test log on
// failure via the per-process log file. One goroutine reaps the child, so
// a health wait can see it exit.
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
	p := &proc{name: name, cmd: cmd, logf: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(func() {
		p.kill()
		logf.Close()
		if t.Failed() {
			if data, err := os.ReadFile(logf.Name()); err == nil {
				t.Logf("---- %s log ----\n%s", name, data)
			}
		}
	})
	return p
}

// kill SIGKILLs the process and waits until it is reaped; idempotent.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// errPortTaken marks a child that exited because another process bound
// its port between freePorts' release and the child's own bind.
var errPortTaken = errors.New("port taken by another process")

// healthy polls the process's healthz until ok, the child exits or the
// deadline passes. A child that exited is reported at once with its log,
// wrapping errPortTaken when it exited on "address already in use".
func (p *proc) healthy(timeout time.Duration) error {
	c := api.NewClient(p.url, nil)
	deadline := time.After(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := c.Healthz(ctx)
		cancel()
		select {
		case <-p.exited:
			return p.exitError()
		default:
		}
		if err == nil {
			return nil
		}
		select {
		case <-p.exited:
			return p.exitError()
		case <-deadline:
			return fmt.Errorf("%s never became healthy: %v", p.url, err)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// exitError describes a child that exited before it became healthy.
func (p *proc) exitError() error {
	log, _ := os.ReadFile(p.logf.Name())
	cause := fmt.Errorf("%s exited before it became healthy: %v", p.name, p.cmd.ProcessState)
	if bytes.Contains(log, []byte("address already in use")) {
		cause = fmt.Errorf("%s exited: %w", p.name, errPortTaken)
	}
	return fmt.Errorf("%w\n---- %s log ----\n%s", cause, p.name, log)
}

// onFreshPorts boots a fleet on one freePorts(t, n) draw. When a child
// lost its port to another process between the draw and its bind, boot
// (which kills what it spawned before returning an error) runs once more
// on a new draw; any other failure, or a second one, fails the test.
func onFreshPorts[F any](t *testing.T, n int, boot func(ports []int) (F, error)) F {
	t.Helper()
	f, err := boot(freePorts(t, n))
	if errors.Is(err, errPortTaken) {
		t.Logf("re-drawing the fleet's ports: %v", err)
		f, err = boot(freePorts(t, n))
	}
	if err != nil {
		t.Fatal(err)
	}
	return f
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

// TestHealthWaitFailsFastOnTakenPort: an apiserver spawned on a port
// another process holds exits on "address already in use", and the
// health wait reports errPortTaken at once rather than at its deadline.
func TestHealthWaitFailsFastOnTakenPort(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e harness (builds binaries, spawns 1 process)")
	}
	bins, err := buildBinaries()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	p := spawn(t, "squatted", bins["apiserver"], t.TempDir(), "-addr", ln.Addr().String())
	p.url = "http://" + ln.Addr().String()
	start := time.Now()
	err = p.healthy(30 * time.Second)
	if !errors.Is(err, errPortTaken) {
		t.Fatalf("health wait on a taken port: %v, want errPortTaken", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("health wait took %v to see the child exit", waited)
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

	storeDir := t.TempDir() // shared artifact store: failover reloads, never retrains
	const backendCount = 3
	sizeFlags := []string{"-train", "60", "-val", "40", "-test", "48"}

	// Boot the backend fleet and the gateway over it on one draw of
	// ports; the last port is the gateway's.
	type fleet struct {
		backends []*proc
		urls     []string
		gw       *proc
	}
	f := onFreshPorts(t, backendCount+1, func(ports []int) (f fleet, err error) {
		logDir := t.TempDir()
		spawnOn := func(name, bin string, port int, args ...string) *proc {
			p := spawn(t, name, bin, logDir, append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, args...)...)
			p.url = "http://127.0.0.1:" + strconv.Itoa(port)
			return p
		}
		defer func() {
			if err != nil {
				for _, p := range append(f.backends, f.gw) {
					if p != nil {
						p.kill()
					}
				}
			}
		}()
		for i := 0; i < backendCount; i++ {
			name := fmt.Sprintf("backend-%d", i)
			b := spawnOn(name, bins["apiserver"], ports[i],
				append([]string{"-instance", name, "-store", storeDir}, sizeFlags...)...)
			f.backends = append(f.backends, b)
			f.urls = append(f.urls, b.url)
		}
		for _, b := range f.backends {
			if err := b.healthy(15 * time.Second); err != nil {
				return f, err
			}
		}
		f.gw = spawnOn("gateway", bins["gateway"], ports[backendCount],
			"-backends", strings.Join(f.urls, ","),
			"-replicas", "2",
			"-probe-interval", "100ms",
			"-instance", "gw-e2e",
		)
		return f, f.gw.healthy(15 * time.Second)
	})
	backends, urls := f.backends, f.urls
	instances := make(map[string]string, backendCount) // url -> instance
	for _, b := range backends {
		instances[b.url] = b.name
	}
	c := api.NewClient(f.gw.url, nil)

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
	victim.kill()

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
