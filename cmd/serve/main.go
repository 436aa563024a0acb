// Command serve runs batched selections through the versioned v1 API
// contract — the same request/response types the HTTP server speaks — and
// prints one api.SelectResponse JSON document. By default it serves in
// process (building or store-loading the offline framework itself); with
// -server it becomes a thin client of a running apiserver, so CLI and
// HTTP selections are bit-identical for the same seed.
//
// Usage:
//
//	serve -task nlp -targets tweet_eval,super_glue/boolq [flags]
//	serve -task cv -all [flags]
//	serve -task nlp -all -server http://127.0.0.1:8080
//
// Flags:
//
//	-strategy S     selection strategy: two-phase (default), sh, bf,
//	                ensemble, or lsq (zero-epoch closed-form proxy)
//	-prefilter-top-k N  keep only the N best candidates by closed-form lsq
//	                score before the epoch-trained strategy runs (0 = off)
//	-server URL     send requests to a running apiserver instead of serving
//	                in process (-store, -workers and -build-workers are
//	                rejected: they configure the serving process; an
//	                explicit -seed is sent as a per-request override)
//	-seed N         world seed (default 42)
//	-store DIR      artifact store; offline stage artifacts persist across
//	                runs (matrix + clustering)
//	-workers N      per-round training parallelism (0 = one per CPU)
//	-build-workers N offline-build parallelism: perf-matrix cells and
//	                recall vectors share this budget (0 = one per CPU,
//	                1 = serial; bit-identical output either way)
//	-deadline-ms N  anytime deadline per target (0 = none); the response
//	                reports truncated targets instead of erroring
//	-max-epochs N   training-epoch budget per target (-1 = unbounded;
//	                0 is a real zero budget)
//	-list-targets   print the family's target datasets and exit
//
// -list-targets and -all read the catalog from the registry: no world, no request.
//
// The process exits nonzero when the request itself fails or when every
// target in the batch failed (the document still prints, with the failed
// count).
//
// The process serves one request over one world and exits, so the knobs of
// a long-lived server (batch width, cache bound, warmup, seed admission)
// are cmd/apiserver's alone: a batch's targets run one per CPU here.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"twophase/internal/api"
	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/service"
)

func main() {
	cfg := config{}
	flag.StringVar(&cfg.task, "task", datahub.TaskNLP, `task family: "nlp" or "cv"`)
	flag.StringVar(&cfg.targets, "targets", "", "comma-separated target dataset names")
	flag.BoolVar(&cfg.all, "all", false, "serve every target in the family's catalog")
	flag.StringVar(&cfg.strategy, "strategy", "",
		fmt.Sprintf("selection strategy: %s (default two-phase)", strings.Join(core.StrategyNames(), ", ")))
	flag.IntVar(&cfg.prefilterTopK, "prefilter-top-k", 0,
		"keep only the N best candidates by closed-form lsq score before the epoch-trained strategy runs (0 = off)")
	flag.StringVar(&cfg.server, "server", "", "apiserver base URL (default: serve in process)")
	flag.Uint64Var(&cfg.seed, "seed", 42, "world seed")
	flag.StringVar(&cfg.storeDir, "store", "", "artifact store directory (optional)")
	flag.IntVar(&cfg.workers, "workers", 0, "per-round training workers (0 = one per CPU)")
	flag.IntVar(&cfg.buildWorkers, "build-workers", 0, "offline-build parallelism (0 = one per CPU, 1 = serial)")
	flag.Int64Var(&cfg.deadlineMS, "deadline-ms", 0, "anytime deadline per target in ms (0 = none; truncates, never cancels)")
	flag.IntVar(&cfg.maxEpochs, "max-epochs", -1, "training-epoch budget per target (-1 = unbounded; 0 is a real zero budget)")
	flag.BoolVar(&cfg.listTargets, "list-targets", false, "list target datasets for the task and exit")
	flag.Parse()
	// Only an explicit -seed becomes a per-request override; otherwise a
	// remote apiserver keeps serving its own configured world instead of
	// being forced onto this binary's default.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			cfg.seedSet = true
		}
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

type config struct {
	task          string
	targets       string
	all           bool
	strategy      string
	prefilterTopK int
	server        string
	seed          uint64
	seedSet       bool // -seed passed explicitly
	storeDir      string
	workers       int
	buildWorkers  int
	deadlineMS    int64
	maxEpochs     int // -1 = unbounded; >=0 sent as the max_epochs budget
	listTargets   bool
	sizes         datahub.Sizes // test hook; zero means datahub defaults
}

// newAPI picks the transport: a remote apiserver when -server is set,
// otherwise an in-process dispatcher over a freshly built service. Both
// implement the same contract.
func newAPI(cfg config) (api.API, error) {
	if cfg.server != "" {
		// These knobs configure the serving process, not a request;
		// silently ignoring them would let a user believe artifacts are
		// persisting or the build is bounded when neither is true.
		if cfg.storeDir != "" {
			return nil, fmt.Errorf("-store configures the serving process; not valid with -server")
		}
		if cfg.workers != 0 {
			return nil, fmt.Errorf("-workers configures the serving process; not valid with -server")
		}
		if cfg.buildWorkers != 0 {
			return nil, fmt.Errorf("-build-workers configures the serving process; not valid with -server")
		}
		return api.NewClient(cfg.server, nil), nil
	}
	svc, err := service.New(service.Options{
		Base:     core.Options{Seed: cfg.seed, Sizes: cfg.sizes, Workers: cfg.workers, BuildWorkers: cfg.buildWorkers},
		StoreDir: cfg.storeDir,
	})
	if err != nil {
		return nil, err
	}
	return api.NewDispatcher(svc, cfg.seed), nil
}

func run(ctx context.Context, w io.Writer, cfg config) error {
	if cfg.listTargets {
		names, err := datahub.TargetNames(cfg.task)
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintln(w, n)
		}
		return nil
	}
	a, err := newAPI(cfg)
	if err != nil {
		return err
	}

	var targets []string
	switch {
	case cfg.all && cfg.targets != "":
		return fmt.Errorf("-all and -targets are mutually exclusive")
	case cfg.all:
		if targets, err = datahub.TargetNames(cfg.task); err != nil {
			return err
		}
	case cfg.targets != "":
		for _, t := range strings.Split(cfg.targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, t)
			}
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("no targets: pass -targets or -all (use -list-targets to see options)")
	}

	req := &api.SelectRequest{
		Task:    cfg.task,
		Targets: targets,
		SelectOptions: api.SelectOptions{
			Strategy:      cfg.strategy,
			DeadlineMS:    cfg.deadlineMS,
			PrefilterTopK: cfg.prefilterTopK,
		},
	}
	if cfg.maxEpochs >= 0 {
		me := cfg.maxEpochs
		req.MaxEpochs = &me
	}
	if cfg.seedSet {
		seed := cfg.seed
		req.Seed = &seed
	}
	resp, err := a.Select(ctx, req)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return err
	}
	if resp.Failed > 0 && resp.Failed == len(resp.Results) {
		return fmt.Errorf("all %d targets failed", resp.Failed)
	}
	return nil
}
