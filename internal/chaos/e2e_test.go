package chaos_test

// The chaos proving ground: a real multi-process fleet (3 apiserver
// backends + 1 gateway, separate OS processes on ephemeral ports) driven
// through seeded fault schedules, asserting the four invariants from the
// package doc. Three distinct schedules run against pre-seeded per-
// backend stores — one with a planted orphan temp file and a planted
// corrupt artifact, all with one world's artifacts deleted so builds and
// writes happen mid-storm — plus a SIGKILL/restart of backend-0 in the
// middle, which is how the startup sweep's quarantine work gets proven
// end to end. TestChaosSmoke is the CI-sized cut of the same storm: two
// backends, short capped schedules, the same assertions.

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
	"twophase/internal/chaos"
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
	dir, err := os.MkdirTemp("", "twophase-chaos-bin-*")
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
	return filepath.Dir(filepath.Dir(wd)) // internal/chaos -> repo root
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

// TestRestartOnTakenPortFailsFast: an apiserver spawned on a port another
// process holds exits on "address already in use"; the health wait reports
// errPortTaken at once, and so it does again for a restart of the same
// proc. kill reaps each child once and may be repeated.
func TestRestartOnTakenPortFailsFast(t *testing.T) {
	requireChaosPrereqs(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	p := spawn(t, "squatted", bins(t)["apiserver"], t.TempDir(), "-addr", ln.Addr().String())
	p.url = "http://" + ln.Addr().String()
	for run := 0; run < 2; run++ {
		if run > 0 {
			p.kill()
			p.start(t)
		}
		start := time.Now()
		err := p.healthy(30 * time.Second)
		if !errors.Is(err, errPortTaken) {
			t.Fatalf("run %d: health wait on a taken port: %v, want errPortTaken", run, err)
		}
		if waited := time.Since(start); waited > 10*time.Second {
			t.Fatalf("run %d: health wait took %v to see the child exit", run, waited)
		}
	}
	p.kill()
	p.kill()
}

// proc is one spawned server process.
type proc struct {
	name string
	url  string
	bin  string
	args []string
	cmd  *exec.Cmd
	logf *os.File
	// exited is closed once the current child is reaped.
	exited chan struct{}
}

// spawn starts a binary and registers cleanup; logs go to the test log on
// failure via the per-process log file.
func spawn(t *testing.T, name, bin string, logDir string, args ...string) *proc {
	t.Helper()
	logf, err := os.OpenFile(filepath.Join(logDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	p := &proc{name: name, bin: bin, args: args, logf: logf}
	p.start(t)
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

// start launches (or relaunches, after kill) the process. One goroutine
// per child reaps it, so a health wait can see it exit.
func (p *proc) start(t *testing.T) {
	t.Helper()
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout = p.logf
	cmd.Stderr = p.logf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", p.name, err)
	}
	exited := make(chan struct{})
	go func() {
		cmd.Wait()
		close(exited)
	}()
	p.cmd, p.exited = cmd, exited
}

// stripFlag removes a "-name value" pair from an argument list.
func stripFlag(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if args[i] == name {
			i++ // skip the value too
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// kill SIGKILLs the current child and waits until it is reaped;
// idempotent.
func (p *proc) kill() {
	if p.cmd != nil {
		p.cmd.Process.Kill()
		<-p.exited
	}
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

// waitHealthy fails the test unless the process becomes healthy.
func waitHealthy(t *testing.T, p *proc, timeout time.Duration) {
	t.Helper()
	if err := p.healthy(timeout); err != nil {
		t.Fatal(err)
	}
}

// worldKey identifies one (seed, target) selection in the storm matrix.
type worldKey struct {
	seed   uint64
	target string
}

func (k worldKey) String() string { return fmt.Sprintf("seed%d/%s", k.seed, k.target) }

// stormMatrix is the request matrix every fleet serves: three worlds,
// two targets each.
var stormMatrix = []worldKey{
	{0, "tweet_eval"}, {0, "glue/sst2"},
	{1, "tweet_eval"}, {1, "glue/sst2"},
	{5, "tweet_eval"}, {5, "glue/sst2"},
}

// trySelect issues one single-target request and returns the response or
// the request error (never both).
func trySelect(c *api.Client, k worldKey) (*api.SelectResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	s := k.seed
	return c.Select(ctx, &api.SelectRequest{
		Task:          "nlp",
		Targets:       []string{k.target},
		SelectOptions: api.SelectOptions{Seed: &s},
	})
}

// strip clears the fields that legitimately vary across backends and
// across degraded/clean serves of the same world (who served, wall time,
// lifetime counters, degradation flags), leaving the selection outcome
// that must be bit-identical.
func strip(resp *api.SelectResponse) api.SelectResponse {
	out := *resp
	out.Results = append([]api.TargetResult(nil), resp.Results...)
	for i := range out.Results {
		out.Results[i].Backend = ""
		out.Results[i].Degraded = false
	}
	out.WallMillis = 0
	out.OfflineBuilds = 0
	out.Degraded = 0
	return out
}

// fleet is one booted backend set plus its gateway.
type fleet struct {
	backends []*proc
	urls     []string
	gw       *proc
	client   *api.Client
}

// fleetSpec configures bootFleet.
type fleetSpec struct {
	stores           []string // one store dir per backend; len = fleet size
	backendSchedules []string // per-backend -fault-schedule ("" = none)
	gwSchedule       string   // gateway -fault-schedule ("" = none)
}

var sizeFlags = []string{"-train", "60", "-val", "40", "-test", "48"}

// bootFleet spawns len(spec.stores) backends (fleet-aware: each knows the
// full URL list, so the artifact fetcher is live) and a gateway fronting
// them, waits for health, and returns the handles. The whole fleet is
// booted once more on new ports if a child lost its port (onFreshPorts).
func bootFleet(t *testing.T, logDir string, spec fleetSpec) *fleet {
	t.Helper()
	n := len(spec.stores)
	// One draw for the whole fleet; the last port is the gateway's.
	return onFreshPorts(t, n+1, func(ports []int) (*fleet, error) {
		urls := make([]string, n)
		for i := range urls {
			urls[i] = "http://127.0.0.1:" + strconv.Itoa(ports[i])
		}
		f := &fleet{urls: urls, backends: make([]*proc, n)}
		for i := range f.backends {
			name := fmt.Sprintf("backend-%d", i)
			args := append([]string{
				"-addr", "127.0.0.1:" + strconv.Itoa(ports[i]),
				"-instance", name,
				"-store", spec.stores[i],
				"-backends", strings.Join(urls, ","),
				"-self", urls[i],
				"-replicas", "2",
			}, sizeFlags...)
			if spec.backendSchedules[i] != "" {
				args = append(args, "-fault-schedule", spec.backendSchedules[i])
			}
			f.backends[i] = spawn(t, name, bins(t)["apiserver"], logDir, args...)
			f.backends[i].url = urls[i]
		}
		for _, b := range f.backends {
			if err := b.healthy(30 * time.Second); err != nil {
				f.shutdown()
				return nil, err
			}
		}
		gwPort := ports[n]
		gwArgs := []string{
			"-addr", "127.0.0.1:" + strconv.Itoa(gwPort),
			"-backends", strings.Join(urls, ","),
			"-replicas", "2",
			"-probe-interval", "100ms",
			"-attempt-timeout", "5s",
			"-instance", "gw-chaos",
		}
		if spec.gwSchedule != "" {
			gwArgs = append(gwArgs, "-fault-schedule", spec.gwSchedule)
		}
		f.gw = spawn(t, "gateway", bins(t)["gateway"], logDir, gwArgs...)
		f.gw.url = "http://127.0.0.1:" + strconv.Itoa(gwPort)
		if err := f.gw.healthy(30 * time.Second); err != nil {
			f.shutdown()
			return nil, err
		}
		f.client = api.NewClient(f.gw.url, nil)
		return f, nil
	})
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

// bins unwraps buildBinaries for use inside helpers.
func bins(t *testing.T) map[string]string {
	t.Helper()
	b, err := buildBinaries()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// shutdown kills every process in the fleet (reverse order: gateway
// first, so no probe noise lands on dying backends).
func (f *fleet) shutdown() {
	if f.gw != nil {
		f.gw.kill()
	}
	for _, b := range f.backends {
		b.kill()
	}
}

// requireChaosPrereqs skips the multi-process suites where they cannot run.
func requireChaosPrereqs(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process chaos harness (builds binaries, spawns fleets)")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
}

// buildBaseline boots a fault-free fleet over one shared store, serves
// the whole storm matrix through the gateway, and returns the store dir
// (now holding every world's artifacts) plus the stripped fault-free
// responses every later success must be bit-identical to.
func buildBaseline(t *testing.T, logDir string) (string, map[worldKey]api.SelectResponse) {
	t.Helper()
	shared := t.TempDir()
	f := bootFleet(t, logDir, fleetSpec{
		stores:           []string{shared, shared, shared},
		backendSchedules: []string{"", "", ""},
	})
	defer f.shutdown()
	baseline := make(map[worldKey]api.SelectResponse, len(stormMatrix))
	for _, k := range stormMatrix {
		resp, err := trySelect(f.client, k)
		if err != nil {
			t.Fatalf("baseline %s: %v", k, err)
		}
		if resp.Failed != 0 {
			t.Fatalf("baseline %s failed in-body: %+v", k, resp.Results[0])
		}
		baseline[k] = strip(resp)
	}
	return shared, baseline
}

// seedStores copies the baseline store into one fresh directory per
// backend, plants a crash scene in backend-0's copy (an orphaned temp
// file and a bit-flipped artifact), and deletes the seed-5 world's stage
// artifacts everywhere so the storm forces real builds, writes and peer
// fetches while faults are armed.
func seedStores(t *testing.T, baseline string, n int) []string {
	t.Helper()
	stores := make([]string, n)
	for i := range stores {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(baseline)); err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"matrices", "recalls"} {
			os.Remove(filepath.Join(dir, kind, "nlp-seed5.bin"))
		}
		stores[i] = dir
	}
	// Backend-0 "crashed mid-write" before this boot: an orphaned temp
	// file that must never be served, and a corrupt artifact whose
	// checksum no longer holds. The startup sweep must quarantine both.
	if err := os.WriteFile(filepath.Join(stores[0], "matrices", "nlp-seed1.bin.tmp999"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(stores[0], "matrices", "nlp-seed1.bin")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatalf("baseline store is missing %s: %v", victim, err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return stores
}

// provePanicRecovery hits each backend directly: the armed
// handler:panic#1 must surface as a typed internal 500 on the first
// select, and the process must keep serving — later selects succeed (a
// few typed refusals from other armed rules are tolerated while the
// schedule drains).
func provePanicRecovery(t *testing.T, f *fleet, clog *chaos.Log) {
	t.Helper()
	k := stormMatrix[0]
	for _, b := range f.backends {
		c := api.NewClient(b.url, nil)
		_, err := trySelect(c, k)
		if !errors.Is(err, api.ErrInternal) {
			t.Fatalf("%s: first select under handler:panic = %v, want typed ErrInternal", b.name, err)
		}
		clog.Event("%s: injected panic surfaced typed: %v", b.name, err)
		ok := false
		for attempt := 0; attempt < 8 && !ok; attempt++ {
			resp, err := trySelect(c, k)
			switch {
			case err == nil && resp.Failed == 0:
				ok = true
			case err != nil && !chaos.Typed(err):
				t.Fatalf("%s: post-panic refusal untyped: %v", b.name, err)
			}
		}
		if !ok {
			t.Fatalf("%s: never served again after recovered panic", b.name)
		}
		clog.Event("%s: serving again after recovered panic", b.name)
	}
}

// stormPass drives the whole matrix through the gateway once. Errors
// must be typed; successes must be bit-identical to baseline. Returns
// how many requests failed (typed).
func stormPass(t *testing.T, f *fleet, baseline map[worldKey]api.SelectResponse, clog *chaos.Log) int {
	t.Helper()
	failed := 0
	for _, k := range stormMatrix {
		resp, err := trySelect(f.client, k)
		if err != nil {
			if !chaos.Typed(err) {
				t.Fatalf("storm %s: untyped refusal: %v", k, err)
			}
			clog.Event("storm %s: typed refusal: %v", k, err)
			failed++
			continue
		}
		if resp.Failed != 0 {
			// Single-target requests surface failures as request errors;
			// an in-body failure here would be a contract break.
			t.Fatalf("storm %s: single-target failure leaked in-body: %+v", k, resp.Results[0])
		}
		if got := strip(resp); !reflect.DeepEqual(got, baseline[k]) {
			t.Fatalf("storm %s: success diverged from fault-free baseline:\n%+v\nvs\n%+v", k, got, baseline[k])
		}
		if resp.Results[0].Degraded {
			// Storm backends run unbounded caches, which never demote a
			// world to a fallback: nothing can be served degraded.
			t.Fatalf("storm %s: served degraded from an unbounded cache: %+v", k, resp)
		}
	}
	return failed
}

// awaitReconvergence polls the gateway's stats until every backend is
// alive with a closed breaker — the fleet has healed.
func awaitReconvergence(t *testing.T, f *fleet, timeout time.Duration, clog *chaos.Log) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		st, err := f.client.Stats(ctx)
		cancel()
		if err == nil && st.Gateway != nil && st.Gateway.Alive == len(f.backends) {
			closed := 0
			for _, bs := range st.Gateway.BackendStats {
				if bs.Breaker == "closed" {
					closed++
				}
			}
			if closed == len(f.backends) {
				clog.Event("fleet reconverged: %d alive, all breakers closed", st.Gateway.Alive)
				return
			}
		}
		select {
		case <-deadline:
			t.Fatalf("fleet never reconverged (last stats err: %v)", err)
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// archivePeerEvents copies the gateway's health transitions — its
// shard.peer_open / shard.peer_closed records, one per backend state
// change — from its process log into the chaos log, so the archived
// story says which backend went down when, and why.
func archivePeerEvents(t *testing.T, gatewayLog string, clog *chaos.Log) {
	t.Helper()
	data, err := os.ReadFile(gatewayLog)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, `"event":"shard.peer_`) {
			clog.Event("gateway %s", line)
			n++
		}
	}
	clog.Event("gateway logged %d backend health transitions", n)
}

// cleanPass re-serves the matrix after the schedules drained: every key
// must succeed (a handful of typed refusals are tolerated while the
// restarted backend's re-armed one-shot rules drain) with a clean,
// non-degraded, bit-identical response.
func cleanPass(t *testing.T, f *fleet, baseline map[worldKey]api.SelectResponse, clog *chaos.Log) {
	t.Helper()
	for _, k := range stormMatrix {
		var resp *api.SelectResponse
		for attempt := 0; attempt < 6; attempt++ {
			r, err := trySelect(f.client, k)
			if err != nil {
				if !chaos.Typed(err) {
					t.Fatalf("clean pass %s: untyped refusal: %v", k, err)
				}
				continue
			}
			if r.Results[0].Degraded {
				// Degraded worlds heal on the first clean rebuild; give
				// the backend another pass.
				continue
			}
			resp = r
			break
		}
		if resp == nil {
			t.Fatalf("clean pass %s: no clean success after drain", k)
		}
		if got := strip(resp); !reflect.DeepEqual(got, baseline[k]) {
			t.Fatalf("clean pass %s diverged from baseline:\n%+v\nvs\n%+v", k, got, baseline[k])
		}
		if resp.Degraded != 0 {
			t.Fatalf("clean pass %s still flagged degraded: %+v", k, resp)
		}
	}
	clog.Event("clean pass: all %d keys bit-identical and non-degraded", len(stormMatrix))
}

// scanStores asserts the persistence invariants on every backend's store
// after the fleet is down: no orphans or corrupt artifacts outside
// quarantine anywhere, and backend-0 (which booted over the planted
// crash scene) actually quarantined something.
func scanStores(t *testing.T, stores []string, clog *chaos.Log) {
	t.Helper()
	for i, dir := range stores {
		rep, err := chaos.ScanStore(dir)
		if err != nil {
			t.Fatalf("scan backend-%d store: %v", i, err)
		}
		if !rep.Clean() {
			t.Fatalf("backend-%d store dirty after chaos: orphans %v, corrupt %v", i, rep.Orphans, rep.Corrupt)
		}
		clog.Event("backend-%d store clean (%d quarantined)", i, rep.Quarantined)
	}
	if rep, _ := chaos.ScanStore(stores[0]); rep.Quarantined == 0 {
		t.Fatal("backend-0 quarantined nothing despite the planted orphan and corrupt artifact")
	}
}

// chaosSchedule is one named storm configuration.
type chaosSchedule struct {
	name     string
	backends []string // per-backend schedule
	gateway  string
}

// TestChaosStorms is the full harness: three distinct seeded schedules,
// each against a fresh 3-backend fleet with pre-seeded stores, a mid-
// storm SIGKILL/restart of backend-0, and the four invariants asserted
// end to end.
func TestChaosStorms(t *testing.T) {
	requireChaosPrereqs(t)
	clog, err := chaos.OpenLog()
	if err != nil {
		t.Fatal(err)
	}
	defer clog.Close()
	logDir := t.TempDir()
	baselineStore, baseline := buildBaseline(t, logDir)

	schedules := []chaosSchedule{
		{
			// Every error class at once: handler panics, store read
			// faults, slow builds behind a flaky transport.
			name: "error-storm",
			backends: []string{
				"seed=101;handler:panic#1;store.read:err@0.4#4;build:hang:200ms@0.5#2",
				"seed=102;handler:panic#1;store.read:err@0.4#4;build:hang:200ms@0.5#2",
				"seed=103;handler:panic#1;store.read:err@0.4#4",
			},
			gateway: "seed=101;transport:reset@0.3#6",
		},
		{
			// Crash-safety: backend-0 tears a write and loses an fsync
			// before being SIGKILLed; its restart must sweep the debris.
			name: "crash-and-sweep",
			backends: []string{
				"seed=202;handler:panic#1;store.write:torn#1;store.fsync:err#1",
				"seed=202;handler:panic#1",
				"seed=202;handler:panic#1",
			},
			gateway: "seed=202;transport:hang:300ms@0.5#4;transport:http500@0.25#3",
		},
		{
			// Distribution under fire: peer fetches and builds failing
			// while the gateway's transport throws raw 500s and resets.
			name: "fetch-storm",
			backends: []string{
				"seed=303;handler:panic#1;fetch.request:err@0.5#3;build:err@0.4#2",
				"seed=304;handler:panic#1;fetch.request:err@0.5#3;build:err@0.4#2",
				"seed=305;handler:panic#1;fetch.request:err@0.5#3",
			},
			gateway: "seed=303;transport:http500@0.4#4;transport:reset@0.2#3",
		},
	}

	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			clog.Event("=== schedule %s ===", sched.name)
			stores := seedStores(t, baselineStore, 3)
			f := bootFleet(t, t.TempDir(), fleetSpec{
				stores:           stores,
				backendSchedules: sched.backends,
				gwSchedule:       sched.gateway,
			})
			defer f.shutdown()

			// 1. Injected handler panics surface typed and the processes
			// keep serving.
			provePanicRecovery(t, f, clog)

			// 2. Storm pass one: typed errors only, successes identical
			// to the fault-free baseline.
			stormPass(t, f, baseline, clog)

			// 3. Build a world unique to backend-0 so its write-path
			// rules (crash-and-sweep's torn write) fire before the
			// crash; the request itself must survive — persistence is
			// best-effort, serving is not.
			b0 := api.NewClient(f.backends[0].url, nil)
			nine := worldKey{9, "tweet_eval"}
			for attempt := 0; ; attempt++ {
				if _, err := trySelect(b0, nine); err == nil {
					break
				} else if !chaos.Typed(err) {
					t.Fatalf("backend-0 seed-9 build refusal untyped: %v", err)
				}
				if attempt >= 5 {
					t.Fatal("backend-0 never built the seed-9 world")
				}
			}

			// 4. SIGKILL backend-0 mid-storm and restart it on the same
			// port over the same store: the startup sweep quarantines the
			// planted debris plus whatever the torn write left behind.
			clog.Event("SIGKILL backend-0")
			f.backends[0].kill()
			stormPass(t, f, baseline, clog) // fleet of two keeps serving
			// The restart comes back with no schedule armed — the crash
			// consumed it. Re-arming one-shot write faults on every boot
			// would leave a final torn write with no later sweep to clean
			// it, and the storm would never terminate.
			f.backends[0].args = stripFlag(f.backends[0].args, "-fault-schedule")
			f.backends[0].start(t)
			waitHealthy(t, f.backends[0], 30*time.Second)
			clog.Event("backend-0 restarted")

			// 5. Storm pass two with the full fleet back.
			stormPass(t, f, baseline, clog)

			// 6. The schedules drain; the fleet reconverges: probes
			// re-admit backend-0, every breaker closes, and a full clean
			// pass serves bit-identical, non-degraded answers.
			awaitReconvergence(t, f, 30*time.Second, clog)
			cleanPass(t, f, baseline, clog)

			// 7. Persistence invariants on the stores the storm touched.
			f.shutdown()
			scanStores(t, stores, clog)
		})
	}
}

// TestChaosSmoke is the CI-sized storm: a 2-backend fleet under one
// short capped schedule, proving the same invariants in under a minute —
// typed refusals, panic recovery, reconvergence, bit-identical answers
// (storm successes vs the post-drain clean run), and clean stores.
func TestChaosSmoke(t *testing.T) {
	requireChaosPrereqs(t)
	clog, err := chaos.OpenLog()
	if err != nil {
		t.Fatal(err)
	}
	defer clog.Close()
	clog.Event("=== chaos smoke ===")
	stores := []string{t.TempDir(), t.TempDir()}
	logDir := t.TempDir()
	f := bootFleet(t, logDir, fleetSpec{
		stores: stores,
		backendSchedules: []string{
			"seed=7;handler:panic#1;store.read:err#2",
			"seed=8;handler:panic#1",
		},
		gwSchedule: "seed=7;transport:http500#2;transport:reset#1",
	})
	defer f.shutdown()

	smoke := []worldKey{{0, "tweet_eval"}, {0, "glue/sst2"}, {1, "tweet_eval"}}
	provePanicRecovery(t, f, clog)

	// Storm: capped rules fire across these requests; refusals must be
	// typed, and whatever succeeds is recorded for the identity check.
	successes := make(map[worldKey]api.SelectResponse)
	for round := 0; round < 3; round++ {
		for _, k := range smoke {
			resp, err := trySelect(f.client, k)
			if err != nil {
				if !chaos.Typed(err) {
					t.Fatalf("smoke %s: untyped refusal: %v", k, err)
				}
				clog.Event("smoke %s: typed refusal: %v", k, err)
				continue
			}
			if prev, ok := successes[k]; ok && !reflect.DeepEqual(strip(resp), prev) {
				t.Fatalf("smoke %s: answers diverged across the storm", k)
			}
			successes[k] = strip(resp)
		}
	}

	// Drain: the fleet reconverges and the clean run reproduces every
	// storm success bit-identically.
	awaitReconvergence(t, f, 30*time.Second, clog)
	for _, k := range smoke {
		var resp *api.SelectResponse
		for attempt := 0; attempt < 6 && resp == nil; attempt++ {
			if r, err := trySelect(f.client, k); err == nil && !r.Results[0].Degraded {
				resp = r
			} else if err != nil && !chaos.Typed(err) {
				t.Fatalf("smoke clean pass %s: untyped refusal: %v", k, err)
			}
		}
		if resp == nil {
			t.Fatalf("smoke clean pass %s: no clean success after drain", k)
		}
		if prev, ok := successes[k]; ok && !reflect.DeepEqual(strip(resp), prev) {
			t.Fatalf("smoke %s: post-drain answer differs from storm answer", k)
		}
	}
	f.shutdown()
	archivePeerEvents(t, filepath.Join(logDir, "gateway.log"), clog)
	for i, dir := range stores {
		rep, err := chaos.ScanStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("backend-%d store dirty after smoke: %+v", i, rep)
		}
	}
	clog.Event("smoke complete: %d distinct keys verified", len(smoke))
}
