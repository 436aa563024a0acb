package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"twophase/internal/modelhub"
)

// config is one run of one workload.
type config struct {
	Workload workload
	// Seed permutes the request cycle; the same seed gives the same
	// requests in the same order.
	Seed uint64
	// WarmUp and Measure are how long the untimed and the measured phase
	// run before each stops at the next lap boundary.
	WarmUp, Measure time.Duration
	// Setups is how many times the fleet is set up from nothing before the
	// run, the last of them serving it, and SetupsAfter how many times again
	// once everything else is measured: half a minute apart, the two groups
	// rarely meet the same weather. setup_s is read off all of them.
	Setups, SetupsAfter int
	// EndToEnd and PerLayer select which metric sets the run must produce;
	// PerLayer adds the traced pass and the component timings.
	EndToEnd, PerLayer bool
	// corrupt, when set, edits the reference answers before the run: the
	// test that a wrong answer is reported as a failure.
	corrupt func(reference)
}

// result is the line a run prints last: the contract's four keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload performs one run: reference answers, set-up, warm-up lap,
// measured phase with its validity guards, and on request the traced pass.
// It returns every metric measured, for printing, next to the result.
func runWorkload(ctx context.Context, cfg config) (*result, metricSet, error) {
	w := cfg.Workload
	p := newPlan(w, cfg.Seed)

	// Reference answers come first: outside set-up and every timed window,
	// and dropped before the fleet exists so they never count as its heap.
	ref, err := buildReference(ctx, p)
	if err != nil {
		return nil, nil, err
	}
	if cfg.corrupt != nil {
		cfg.corrupt(ref)
	}

	var f *fleet
	var setups []float64
	// again tears the serving fleet down, if any, and sets one up from an
	// empty store, timing the set-up alone.
	again := func() error {
		if f != nil {
			if err := f.tearDown(); err != nil {
				return fmt.Errorf("tear down set-up %d: %w", len(setups)-1, err)
			}
		}
		start := time.Now()
		if f, err = setUp(ctx, w, storeDirFor(w.Name, len(setups))); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return nil
	}
	for i := 0; i < cfg.Setups; i++ {
		if err := again(); err != nil {
			return nil, nil, err
		}
	}
	defer func() {
		if f != nil {
			f.tearDown()
		}
	}()

	// The untimed phase (one lap at least) fills the feature caches and opens
	// the connections, so that the counts of the measured phase are those of
	// a fleet that has served before.
	next := 0
	drive(ctx, f, p, ref, &next, cfg.WarmUp)

	before, err := snapshot(ctx, f)
	if err != nil {
		return nil, nil, err
	}
	run := drive(ctx, f, p, ref, &next, cfg.Measure)
	after, err := snapshot(ctx, f)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	d := after.sub(before)
	if err := guard(w, d); err != nil {
		return nil, nil, fmt.Errorf("invalid run: %w", err)
	}
	t := run.Tally
	if t.Selects == 0 {
		return nil, nil, fmt.Errorf("no selection verified: %d of %d requests failed: %s", t.Failed, t.Requests, t.FirstFailure)
	}
	selects := float64(t.Selects)
	requests := float64(t.Requests)
	lat := make([]float64, len(run.Samples))
	for i, s := range run.Samples {
		lat[i] = s.latencyMS()
	}
	lat = sorted(lat)
	p50, p90, rate := quietWindows(run.Samples, len(p.Lap))
	m := metricSet{
		"select_p50_ms":     p50,
		"select_p90_ms":     p90,
		"selects_per_s":     rate,
		"epochs_per_select": exact(t.Epochs / selects),
		"winner_regret_pp":  exact(t.RegretPP / selects),
		"live_heap_mb":      float64(mem.HeapAlloc) / (1 << 20),

		"fail_share":                      float64(t.Failed) / requests,
		"shard.subrequests_per_request":   float64(d.Subrequests) / requests,
		"shard.failovers":                 float64(d.Failovers),
		"shard.hedges":                    float64(d.Hedges),
		"shard.breaker_skips":             float64(d.BreakerSkips),
		"admission.queued":                float64(d.Queued),
		"admission.refused":               float64(d.Refused),
		"api.repeat_share":                repeatShare(p, next-t.Requests, next),
		"service.offline_builds":          float64(d.OfflineBuilds),
		"service.artifact_hits":           float64(d.ArtifactHits),
		"lifecycle.hit_ratio":             float64(d.CacheHits) / float64(d.CacheHits+d.CacheMisses),
		"lifecycle.evictions":             float64(d.Evictions),
		"recall.recalled_per_select":      float64(t.Recalled) / selects,
		"modelhub.extractions_per_select": float64(d.Extractions) / selects,
		"runtime.alloc_mb_per_select":     float64(d.AllocBytes) / (1 << 20) / selects,
		"runtime.gc_cycles":               float64(d.GCCycles),
		"runtime.gc_pause_ms":             float64(d.GCPauseNS) / 1e6,
		"runtime.peak_rss_mb":             peakRSSMB(),
		"bench.select_p99_ms":             percentile(lat, tailPercentile(len(lat))),
		"bench.samples":                   float64(len(lat)),
		"bench.gomaxprocs":                float64(runtime.GOMAXPROCS(0)),
	}
	if t.Failed > 0 {
		fmt.Fprintf(os.Stderr, "first failure: %s\n", t.FirstFailure)
	}

	var defs []metricDef
	if cfg.EndToEnd {
		defs = append(defs, endToEnd...)
	}
	if cfg.PerLayer {
		if err := tracedPass(ctx, f, p, &next, m); err != nil {
			return nil, nil, fmt.Errorf("traced pass: %w", err)
		}
		if err := components(ctx, w.LadderCap > 0, m); err != nil {
			return nil, nil, fmt.Errorf("component timings: %w", err)
		}
		defs = append(defs, perLayer...)
	}
	for i := 0; i < cfg.SetupsAfter; i++ {
		if err := again(); err != nil {
			return nil, nil, err
		}
	}
	m["setup_s"] = percentile(sorted(setups), quietQuantile)
	rendered, err := m.render(defs)
	if err != nil {
		return nil, nil, err
	}
	if err := f.tearDown(); err != nil {
		return nil, nil, fmt.Errorf("tear down: %w", err)
	}
	return &result{Correct: t.Failed == 0, Attempted: t.Requests, Failed: t.Failed, Metrics: rendered}, m, nil
}

// exact strips the last-bit noise that summing per-client tallies in
// whichever order they finish leaves on a mean, so that a count repeats to
// the digit.
func exact(v float64) float64 { return math.Round(v*1e9) / 1e9 }

// sample is one request of a phase: its place in the cycle, when it was sent
// and answered (ms since the phase began), and how many of its selections
// verified.
type sample struct {
	K               int
	StartMS, EndMS  float64
	VerifiedSelects int
}

func (s sample) latencyMS() float64 { return s.EndMS - s.StartMS }

// driven is what one closed-loop phase observed.
type driven struct {
	Samples []sample
	Tally   tally
}

// The measured phase is cut into windows of whole laps and each timing is
// read off the quiet end of them. This sandbox's neighbours slow the process
// by anything up to 2x for two to twenty seconds at a time, and a run
// catches more or less of that as luck has it: a percentile or a rate over
// the whole phase, or the median over its windows, moves with the share of
// the run a neighbour was busy, while the tenth of the windows that ran
// fastest is the program alone as long as the machine was quiet for a
// tenth of the run. Every window holds the same requests in the same
// order, so windows differ by the weather and not by their mix.
const (
	// maxWindows bounds the window count, so that a window keeps enough
	// requests for its own p90.
	maxWindows = 40
	// quietQuantile is the percentile a timing is read at over its repeats:
	// a latency at the first decile of the windows' values, a rate at the
	// ninth, setup_s at the first decile of the run's set-ups. Measured under
	// a neighbour that takes a core for 3-20 s at a time, the first quartile
	// still moved by 17% from run to run where the first decile moved by 8%.
	quietQuantile = 10
)

// quietWindows cuts a phase into up to maxWindows contiguous stretches of
// whole laps, computes the median and p90 request latency and the verified
// selections per second within each, and reads each of the three off the
// quiet tenth of the windows.
func quietWindows(samples []sample, lapLen int) (p50, p90, rate float64) {
	byK := append([]sample(nil), samples...)
	sort.Slice(byK, func(i, j int) bool { return byK[i].K < byK[j].K })
	laps := len(byK) / lapLen
	n := min(maxWindows, laps)
	var p50s, p90s, rates []float64
	for s := 0; s < n; s++ {
		win := byK[s*laps/n*lapLen : (s+1)*laps/n*lapLen]
		lat := make([]float64, len(win))
		begin, end, selects := math.Inf(1), math.Inf(-1), 0
		for i, q := range win {
			lat[i] = q.latencyMS()
			begin, end = math.Min(begin, q.StartMS), math.Max(end, q.EndMS)
			selects += q.VerifiedSelects
		}
		lat = sorted(lat)
		p50s = append(p50s, percentile(lat, 50))
		p90s = append(p90s, percentile(lat, 90))
		rates = append(rates, float64(selects)/(end-begin)*1e3)
	}
	return percentile(sorted(p50s), quietQuantile), percentile(sorted(p90s), quietQuantile), percentile(sorted(rates), 100-quietQuantile)
}

// drive runs the closed loop: each client sends its next request only once
// its previous one is answered and verified, because every caller of this
// API (CLI, batch job, gateway sub-request) waits for its reply. Requests
// are taken in cycle order from *next; the phase ends at the first lap
// boundary at or after the duration, so every measured lap is whole and the
// per-select counts do not depend on where the clock cut.
func drive(ctx context.Context, f *fleet, p *plan, ref reference, next *int, d time.Duration) driven {
	var (
		mu      sync.Mutex
		stopped bool
		first   = *next
		wg      sync.WaitGroup
		parts   = make([]driven, p.w.clients())
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		k := *next
		if k > first && k%len(p.Lap) == 0 && time.Since(start) >= d {
			stopped = true
		}
		if stopped {
			return 0, false
		}
		*next++
		return k, true
	}
	for c := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := &parts[c]
			for {
				k, ok := take()
				if !ok {
					return
				}
				req := p.request(p.Lap[k%len(p.Lap)], k)
				t0 := time.Now()
				resp, err := f.Client.Select(ctx, req)
				t1 := time.Now()
				before := part.Tally.Selects
				ref.check(&part.Tally, req, resp, err)
				part.Samples = append(part.Samples, sample{
					K: k, StartMS: float64(t0.Sub(start)) / 1e6, EndMS: float64(t1.Sub(start)) / 1e6,
					VerifiedSelects: part.Tally.Selects - before,
				})
			}
		}()
	}
	wg.Wait()
	var out driven
	for _, part := range parts {
		out.Samples = append(out.Samples, part.Samples...)
		out.Tally.merge(part.Tally)
	}
	return out
}

// repeatShare is the share of requests [from, to) whose body is
// byte-identical to an earlier one of the same range.
func repeatShare(p *plan, from, to int) float64 {
	seen := make(map[string]bool)
	repeats := 0
	for k := from; k < to; k++ {
		body, _ := json.Marshal(p.request(p.Lap[k%len(p.Lap)], k)) // a request of plain fields cannot fail to marshal
		if seen[string(body)] {
			repeats++
		}
		seen[string(body)] = true
	}
	return float64(repeats) / float64(to-from)
}

// counters are the layers' own public counts at one instant.
type counters struct {
	Subrequests, Failovers, Hedges, BreakerSkips int64
	Queued, Refused                              int64
	OfflineBuilds, ArtifactHits                  int64
	CacheHits, CacheMisses, Evictions            int64
	Extractions                                  int64
	AllocBytes, GCCycles, GCPauseNS              uint64
}

func snapshot(ctx context.Context, f *fleet) (counters, error) {
	var c counters
	st, err := f.Router.Stats(ctx)
	if err != nil {
		return c, fmt.Errorf("gateway stats: %w", err)
	}
	c.Failovers, c.Hedges, c.BreakerSkips = st.Gateway.Failovers, st.Gateway.Hedges, st.Gateway.BreakerSkips
	for _, b := range st.Gateway.BackendStats {
		c.Subrequests += b.Requests
	}
	adm := f.Admission.Stats()
	c.Queued, c.Refused = adm.Queued, adm.RateLimited+adm.Shed
	for _, b := range f.Backends {
		adm := b.Admission.Stats()
		c.Queued += adm.Queued
		c.Refused += adm.RateLimited + adm.Shed
		c.OfflineBuilds += int64(b.Svc.Builds())
		c.ArtifactHits += b.Svc.ArtifactStats().Hits
		cache := b.Svc.CacheStats()
		c.CacheHits += cache.Hits
		c.CacheMisses += cache.Misses
		c.Evictions += cache.Evictions
	}
	c.Extractions = modelhub.Extractions()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.AllocBytes, c.GCCycles, c.GCPauseNS = mem.TotalAlloc, uint64(mem.NumGC), mem.PauseTotalNs
	return c, nil
}

func (c counters) sub(o counters) counters {
	return counters{
		Subrequests: c.Subrequests - o.Subrequests, Failovers: c.Failovers - o.Failovers,
		Hedges: c.Hedges - o.Hedges, BreakerSkips: c.BreakerSkips - o.BreakerSkips,
		Queued: c.Queued - o.Queued, Refused: c.Refused - o.Refused,
		OfflineBuilds: c.OfflineBuilds - o.OfflineBuilds, ArtifactHits: c.ArtifactHits - o.ArtifactHits,
		CacheHits: c.CacheHits - o.CacheHits, CacheMisses: c.CacheMisses - o.CacheMisses,
		Evictions: c.Evictions - o.Evictions, Extractions: c.Extractions - o.Extractions,
		AllocBytes: c.AllocBytes - o.AllocBytes, GCCycles: c.GCCycles - o.GCCycles, GCPauseNS: c.GCPauseNS - o.GCPauseNS,
	}
}

// guard fails a run whose measured phase was not the workload it claims to
// be, instead of reporting a number for something else.
func guard(w workload, d counters) error {
	if d.OfflineBuilds != 0 {
		return fmt.Errorf("%d offline builds after set-up", d.OfflineBuilds)
	}
	if d.Failovers != 0 || d.Hedges != 0 || d.BreakerSkips != 0 {
		return fmt.Errorf("gateway saw %d failovers, %d hedges, %d breaker skips", d.Failovers, d.Hedges, d.BreakerSkips)
	}
	if d.Refused != 0 {
		return fmt.Errorf("admission refused %d requests", d.Refused)
	}
	if w.cold() {
		if d.CacheHits != 0 {
			return fmt.Errorf("%d lifecycle cache hits on a workload where every request must restore", d.CacheHits)
		}
		return nil
	}
	if d.Evictions != 0 || d.CacheMisses != 0 {
		return fmt.Errorf("resident worlds moved: %d evictions, %d cache misses", d.Evictions, d.CacheMisses)
	}
	return nil
}

// peakRSSMB is the process's high-water resident set, from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
