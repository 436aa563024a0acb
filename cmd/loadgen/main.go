// Command loadgen replays a synthetic selection workload against a
// serving endpoint (apiserver or gateway) at a fixed open-loop rate and
// reports the latency distribution plus the admission outcome mix as one
// JSON document — the load half of the anytime-selection story: requests
// carry a per-request budget, the server answers 200 truncated under the
// budget and sheds typed 429/503 refusals past its limits.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8090 [flags]
//
// Flags:
//
//	-addr URL        target base URL (required)
//	-task NAME       task family (default nlp)
//	-targets LIST    comma-separated target datasets (default tweet_eval)
//	-rate R          open-loop request rate, req/s (default 50)
//	-duration D      run length (default 10s)
//	-concurrency N   max in-flight requests; arrivals past it are counted
//	                 as local drops, not sent (default 256)
//	-strategy S      selection strategy per request (default two-phase)
//	-max-epochs N    per-request epoch budget (-1 = unbounded; default 0,
//	                 the cheapest anytime request)
//	-deadline-ms N   per-request deadline budget (0 = none)
//	-client ID       X-Client-Id header (default "loadgen")
//	-priority N      X-Priority header (0 = omitted)
//	-out FILE        JSON report path (default BENCH_load.json)
//	-strict          exit nonzero when any request fails with an untyped
//	                 (internal) error — refusals and sheds are expected
//	                 under saturation, 500s never are
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twophase/internal/api"
)

type config struct {
	addr        string
	task        string
	targets     string
	rate        float64
	duration    time.Duration
	concurrency int
	strategy    string
	maxEpochs   int
	deadlineMS  int64
	client      string
	priority    int
	out         string
	strict      bool
}

// report is the emitted JSON document: the outcome mix and the latency
// distribution of every completed request (successes and refusals alike —
// a shed answered in 2ms is the behavior under test).
type report struct {
	Addr        string  `json:"addr"`
	Task        string  `json:"task"`
	Strategy    string  `json:"strategy"`
	RateRPS     float64 `json:"rate_rps"`
	DurationMS  int64   `json:"duration_ms"`
	Concurrency int     `json:"concurrency"`

	Sent        int64 `json:"sent"`
	LocalDrops  int64 `json:"local_drops"`
	OK          int64 `json:"ok"`
	Truncated   int64 `json:"truncated"`
	RateLimited int64 `json:"rate_limited"`
	Overloaded  int64 `json:"overloaded"`
	Unavailable int64 `json:"unavailable"`
	Canceled    int64 `json:"canceled"`
	Internal    int64 `json:"internal"`

	ThroughputRPS float64 `json:"throughput_rps"`
	LatencyMS     latency `json:"latency_ms"`
	OKLatencyMS   latency `json:"ok_latency_ms"`
}

type latency struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", "", "target base URL (required)")
	flag.StringVar(&cfg.task, "task", "nlp", "task family")
	flag.StringVar(&cfg.targets, "targets", "tweet_eval", "comma-separated target datasets")
	flag.Float64Var(&cfg.rate, "rate", 50, "open-loop request rate, req/s")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "run length")
	flag.IntVar(&cfg.concurrency, "concurrency", 256, "max in-flight requests")
	flag.StringVar(&cfg.strategy, "strategy", "", "selection strategy (empty = server default)")
	flag.IntVar(&cfg.maxEpochs, "max-epochs", 0, "per-request epoch budget (-1 = unbounded)")
	flag.Int64Var(&cfg.deadlineMS, "deadline-ms", 0, "per-request deadline budget in ms (0 = none)")
	flag.StringVar(&cfg.client, "client", "loadgen", "X-Client-Id header")
	flag.IntVar(&cfg.priority, "priority", 0, "X-Priority header (0 = omitted)")
	flag.StringVar(&cfg.out, "out", "BENCH_load.json", "JSON report path")
	flag.BoolVar(&cfg.strict, "strict", false, "exit nonzero on any internal (untyped) error")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// headerTransport stamps the admission headers on every request.
type headerTransport struct {
	base     http.RoundTripper
	client   string
	priority int
}

func (h headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if h.client != "" {
		r.Header.Set(api.ClientIDHeader, h.client)
	}
	if h.priority != 0 {
		r.Header.Set(api.PriorityHeader, fmt.Sprint(h.priority))
	}
	return h.base.RoundTrip(r)
}

func run(cfg config) error {
	if cfg.addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if cfg.rate <= 0 || cfg.duration <= 0 || cfg.concurrency <= 0 {
		return fmt.Errorf("-rate, -duration and -concurrency must be positive")
	}
	var targets []string
	for _, t := range strings.Split(cfg.targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("-targets is empty")
	}

	hc := &http.Client{Transport: headerTransport{
		base: http.DefaultTransport, client: cfg.client, priority: cfg.priority,
	}}
	client := api.NewClient(cfg.addr, hc)

	req := &api.SelectRequest{Task: cfg.task, Targets: targets,
		SelectOptions: api.SelectOptions{Strategy: cfg.strategy, DeadlineMS: cfg.deadlineMS}}
	if cfg.maxEpochs >= 0 {
		me := cfg.maxEpochs
		req.MaxEpochs = &me
	}

	rep := &report{Addr: cfg.addr, Task: cfg.task, Strategy: cfg.strategy,
		RateRPS: cfg.rate, Concurrency: cfg.concurrency}
	var mu sync.Mutex
	var all, oks []time.Duration
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.concurrency)

	fire := func() {
		defer wg.Done()
		defer func() { <-sem }()
		start := time.Now()
		resp, err := client.Select(context.Background(), req)
		elapsed := time.Since(start)
		mu.Lock()
		all = append(all, elapsed)
		if err == nil {
			oks = append(oks, elapsed)
		}
		mu.Unlock()
		switch {
		case err == nil:
			atomic.AddInt64(&rep.OK, 1)
			atomic.AddInt64(&rep.Truncated, int64(resp.Truncated))
		case errors.Is(err, api.ErrRateLimited):
			atomic.AddInt64(&rep.RateLimited, 1)
		case errors.Is(err, api.ErrOverloaded):
			atomic.AddInt64(&rep.Overloaded, 1)
		case errors.Is(err, api.ErrUnavailable):
			atomic.AddInt64(&rep.Unavailable, 1)
		case errors.Is(err, api.ErrCanceled):
			atomic.AddInt64(&rep.Canceled, 1)
		default:
			atomic.AddInt64(&rep.Internal, 1)
		}
	}

	// Open loop: arrivals tick at the configured rate regardless of how
	// slowly the server answers — that is what drives it into admission
	// control. The concurrency cap only protects this process; an arrival
	// finding it full is a local drop, recorded, never silently skipped.
	interval := time.Duration(float64(time.Second) / cfg.rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.After(cfg.duration)
	begin := time.Now()
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			select {
			case sem <- struct{}{}:
				rep.Sent++
				wg.Add(1)
				go fire()
			default:
				rep.LocalDrops++
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(begin)

	rep.DurationMS = elapsed.Milliseconds()
	if secs := elapsed.Seconds(); secs > 0 {
		rep.ThroughputRPS = float64(rep.OK) / secs
	}
	rep.LatencyMS = summarize(all)
	rep.OKLatencyMS = summarize(oks)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(cfg.out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("loadgen: sent %d (drops %d) ok %d truncated %d rate_limited %d overloaded %d canceled %d internal %d\n",
		rep.Sent, rep.LocalDrops, rep.OK, rep.Truncated, rep.RateLimited, rep.Overloaded, rep.Canceled, rep.Internal)
	fmt.Printf("loadgen: latency p50 %.1fms p95 %.1fms p99 %.1fms max %.1fms; %.1f ok/s; report -> %s\n",
		rep.LatencyMS.P50, rep.LatencyMS.P95, rep.LatencyMS.P99, rep.LatencyMS.Max, rep.ThroughputRPS, cfg.out)
	if cfg.strict && rep.Internal > 0 {
		return fmt.Errorf("%d requests failed with internal errors under -strict", rep.Internal)
	}
	return nil
}

// summarize renders a latency sample set as nearest-rank percentiles in
// milliseconds.
func summarize(samples []time.Duration) latency {
	if len(samples) == 0 {
		return latency{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pick := func(p float64) float64 {
		rank := int(p/100*float64(len(samples))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(samples) {
			rank = len(samples) - 1
		}
		return float64(samples[rank]) / float64(time.Millisecond)
	}
	return latency{
		P50: pick(50),
		P95: pick(95),
		P99: pick(99),
		Max: float64(samples[len(samples)-1]) / float64(time.Millisecond),
	}
}
