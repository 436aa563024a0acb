package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"twophase/internal/admission"
	"twophase/internal/api"
	"twophase/internal/core"
	"twophase/internal/service"
	"twophase/internal/shard"
)

// outDir is where a run keeps its store and writes its trace: inside the
// benchmark's own directory, so a run touches nothing else in the checkout.
// The path is relative to the checkout root the command runs from; the
// package's tests, which run in the package directory, repoint it.
var outDir = filepath.Join("bench", "out")

// admissionLimits are on but out of the load's reach (at most two requests
// are ever in flight), so every request pays the controller's fast path and
// any refusal is a failure.
var admissionLimits = admission.Options{Rate: 5000, Burst: 500, MaxInflight: 4, MaxQueue: 16}

// backend is one apiserver's worth of serving stack, wired the way
// cmd/apiserver wires it.
type backend struct {
	URL        string
	Svc        *service.Service
	Dispatcher *api.Dispatcher
	Admission  *admission.Controller
	Handler    http.Handler
	srv        *http.Server
}

// fleet is the system under test: two backends over one shared store
// directory and a gateway in front, all in this process over loopback HTTP.
type fleet struct {
	StoreDir  string
	Backends  []*backend
	Router    *shard.Router
	Admission *admission.Controller
	// Client is the load generator's view: the gateway's public address.
	Client *api.Client

	gateway   *http.Server
	transport []*http.Transport
	// served receives each Serve goroutine's exit; serving counts them.
	served  chan error
	serving int
}

func loopback(port int) string { return fmt.Sprintf("127.0.0.1:%d", port) }

// listen binds the three fixed ports up front: a taken port fails the run
// before any world is built, and moving to another port would move world
// ownership on the ring.
func listen() ([]net.Listener, error) {
	var lns []net.Listener
	for _, port := range []int{gatewayPort, backendPort0, backendPort1} {
		ln, err := net.Listen("tcp", loopback(port))
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("fixed port unavailable: %w", err)
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// setUp builds the fleet from nothing, in the order an operator would:
// backend 0 builds every world into the empty store, backend 1 restores
// them from it, the listeners come up and the gateway's first probe round
// finds both backends healthy. Its wall time is the set-up a user waits for.
func setUp(ctx context.Context, w workload, storeDir string) (f *fleet, err error) {
	lns, err := listen()
	if err != nil {
		return nil, err
	}
	f = &fleet{StoreDir: storeDir, served: make(chan error, len(lns))}
	defer func() {
		if err != nil {
			for _, ln := range lns {
				ln.Close()
			}
			f.tearDown()
		}
	}()
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	newTransport := func(perHost int) *http.Transport {
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxConnsPerHost = perHost
		t.MaxIdleConnsPerHost = perHost
		f.transport = append(f.transport, t)
		return t
	}
	var urls []string
	for i, ln := range lns[1:] {
		// Workers, Concurrency and BuildWorkers stay at the defaults
		// cmd/apiserver resolves (one per CPU).
		svc, err := service.New(service.Options{
			Base:      core.Options{Seed: serviceSeed, Sizes: w.Sizes},
			StoreDir:  storeDir,
			CacheSize: w.CacheSize,
		})
		if err != nil {
			return nil, err
		}
		if err := svc.Warm(ctx, w.Worlds); err != nil {
			return nil, fmt.Errorf("backend %d warm: %w", i, err)
		}
		b := &backend{
			URL:        "http://" + ln.Addr().String(),
			Svc:        svc,
			Dispatcher: api.NewDispatcher(svc, serviceSeed),
			Admission:  admission.NewController(admissionLimits),
		}
		b.Handler = api.NewHandlerWith(b.Dispatcher, api.HandlerOptions{
			Instance: fmt.Sprintf("b%d", i), Admission: b.Admission, Artifacts: svc.Store(),
		})
		b.srv = &http.Server{Handler: b.Handler}
		f.Backends = append(f.Backends, b)
		urls = append(urls, b.URL)
	}
	if builds := f.Backends[0].Svc.Builds(); builds != len(w.Worlds) {
		return nil, fmt.Errorf("backend 0 ran %d offline builds for %d worlds", builds, len(w.Worlds))
	}
	if builds := f.Backends[1].Svc.Builds(); builds != 0 {
		return nil, fmt.Errorf("backend 1 ran %d offline builds over a full store", builds)
	}
	for i, b := range f.Backends {
		f.serve(b.srv, lns[i+1])
	}

	f.Router, err = shard.NewRouter(shard.RouterOptions{
		Backends:      urls,
		Replicas:      2,
		Seed:          serviceSeed,
		ProbeInterval: time.Second,
		HTTPClient:    &http.Client{Transport: newTransport(0)},
	})
	if err != nil {
		return nil, err
	}
	f.Router.Start(context.Background())
	if err := f.Router.Membership().WaitProbed(ctx); err != nil {
		return nil, err
	}
	if alive := f.Router.Membership().AliveCount(); alive != len(urls) {
		return nil, fmt.Errorf("gateway probes found %d of %d backends healthy", alive, len(urls))
	}
	f.Admission = admission.NewController(admissionLimits)
	members := f.Router.Membership()
	f.gateway = &http.Server{Handler: api.NewHandlerWith(f.Router, api.HandlerOptions{
		Ready:     func() bool { return members.Probed() && members.AliveCount() > 0 },
		Instance:  "gateway",
		Admission: f.Admission,
	})}
	f.serve(f.gateway, lns[0])

	f.Client = api.NewClient("http://"+lns[0].Addr().String(), &http.Client{Transport: newTransport(w.clients())})
	if err := f.Client.Health(ctx); err != nil {
		return nil, fmt.Errorf("gateway health: %w", err)
	}
	return f, checkOwnership(f, w)
}

// checkOwnership is the guard behind the fixed world seeds: every backend
// must be primary owner of at least two worlds, or a size-1 cache would see
// the same world twice in a row and single-target traffic would idle a
// backend.
func checkOwnership(f *fleet, w workload) error {
	primaries := make(map[string]int)
	for _, k := range w.Worlds {
		primaries[f.Router.Owners(k.Task, k.Seed)[0]]++
	}
	for _, b := range f.Backends {
		if primaries[b.URL] < 2 {
			return fmt.Errorf("backend %s is primary owner of %d worlds, want at least 2 (split %v)", b.URL, primaries[b.URL], primaries)
		}
	}
	return nil
}

// primary returns the backend that owns a world first on the ring: the one
// a single-target request for it reaches.
func (f *fleet) primary(task string, seed uint64) *backend {
	url := f.Router.Owners(task, seed)[0]
	for _, b := range f.Backends {
		if b.URL == url {
			return b
		}
	}
	panic("ring owner " + url + " is not a backend of this fleet")
}

func (f *fleet) serve(srv *http.Server, ln net.Listener) {
	f.serving++
	go func() { f.served <- srv.Serve(ln) }()
}

// tearDown stops every listener and goroutine the fleet started, waits for
// them, and removes the store.
func (f *fleet) tearDown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	// Idle client connections go first: Shutdown waits five seconds for a
	// connection that was dialled and never carried a request, and the
	// transports keep one of those around.
	for _, t := range f.transport {
		t.CloseIdleConnections()
	}
	if f.gateway != nil {
		errs = append(errs, f.gateway.Shutdown(ctx))
	}
	if f.Router != nil {
		f.Router.Close()
	}
	for _, b := range f.Backends {
		if b.srv != nil {
			errs = append(errs, b.srv.Shutdown(ctx))
		}
	}
	for ; f.serving > 0; f.serving-- {
		if err := <-f.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, os.RemoveAll(f.StoreDir))
	return errors.Join(errs...)
}

// storeDirFor names a run's private store under outDir.
func storeDirFor(workload string, attempt int) string {
	return filepath.Join(outDir, fmt.Sprintf("store-%s-%d-%d", workload, os.Getpid(), attempt))
}
