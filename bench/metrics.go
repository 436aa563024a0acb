package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef describes one reported metric. The tables below are the single
// source of the names, units, directions and bounds: BENCHMARK.json is
// generated from them (-manifest) and a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
}

// endToEnd are the metrics a client of the gateway sees. The timing bounds
// are set by the machine, not by taste. The driver's host is shared: its own
// two sets of ten runs of one commit, measured as the median over five
// stretches of a 10 s phase, spread (first to third quartile over the median)
// by 13-56% on select_p50_ms. Read off the quiet tenth of a 25 s phase the
// same timings spread by 4-10% here, with or without a neighbour taking a
// core for 3-20 s at a time, which leaves the contract's largest bound with
// room to spare and a smaller one without. epochs_per_select and
// winner_regret_pp are counts that repeat exactly for a given commit (the
// worlds are fixed and whole laps are measured), so their bound is the
// smallest the contract expresses.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"select_p50_ms", "ms", "lower", 0.25},
	{"select_p90_ms", "ms", "lower", 0.25},
	{"selects_per_s", "1/s", "higher", 0.25},
	{"epochs_per_select", "epochs", "lower", 0.001},
	{"winner_regret_pp", "pct-points", "lower", 0.001},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer metrics carry their module as the name's prefix. Values in ms/us
// are medians from the traced pass or the component timings; counts and
// ratios come from the untraced measured phase through the layers' public
// stats.
var perLayer = []metricDef{
	// fail_share keeps the issue's name; it lives here because an
	// end-to-end metric may never be 0 and this one always should be.
	{"fail_share", "ratio", "lower", 0},

	{"shard.self_ms", "ms", "lower", 0},
	{"shard.owners_us", "us", "lower", 0},
	{"shard.subrequests_per_request", "count", "lower", 0},
	{"shard.failovers", "count", "lower", 0},
	{"shard.hedges", "count", "lower", 0},
	{"shard.breaker_skips", "count", "lower", 0},

	{"admission.admit_us", "us", "lower", 0},
	{"admission.queued", "count", "lower", 0},
	{"admission.refused", "count", "lower", 0},

	{"api.wire_self_ms", "ms", "lower", 0},
	{"api.handler_self_ms", "ms", "lower", 0},
	{"api.dispatch_self_ms", "ms", "lower", 0},
	{"api.response_bytes_per_request", "bytes", "lower", 0},
	{"api.repeat_share", "ratio", "higher", 0},

	{"service.self_ms", "ms", "lower", 0},
	{"service.restore_ms", "ms", "lower", 0},
	{"service.offline_builds", "count", "lower", 0},
	{"service.artifact_hits", "count", "lower", 0},

	{"lifecycle.acquire_us", "us", "lower", 0},
	{"lifecycle.hit_ratio", "ratio", "higher", 0},
	{"lifecycle.evictions", "count", "lower", 0},

	{"core.select_ms", "ms", "lower", 0},
	{"core.self_ms", "ms", "lower", 0},
	{"core.select_sh_ms", "ms", "lower", 0},
	{"core.select_bf_ms", "ms", "lower", 0},
	{"core.select_ensemble_ms", "ms", "lower", 0},
	{"core.select_lsq_ms", "ms", "lower", 0},
	{"core.select_prefilter_ms", "ms", "lower", 0},
	{"core.build_nlp_ms", "ms", "lower", 0},
	{"core.build_cv_ms", "ms", "lower", 0},
	{"core.assemble_ms", "ms", "lower", 0},

	{"recall.recall_ms", "ms", "lower", 0},
	{"recall.prepare_ms", "ms", "lower", 0},
	{"recall.recalled_per_select", "count", "lower", 0},
	{"proxy.score_ms", "ms", "lower", 0},
	{"lsq.rank_ms", "ms", "lower", 0},
	{"selection.fineselect_ms", "ms", "lower", 0},

	{"trainer.epoch_us", "us", "lower", 0},
	{"trainer.run_us", "us", "lower", 0},
	{"modelhub.extract_ms", "ms", "lower", 0},
	{"modelhub.extractions_per_select", "count", "lower", 0},
	{"numeric.mulframe_gflops", "GFLOP/s", "higher", 0},
	{"perfmatrix.build_ms", "ms", "lower", 0},

	{"store.read_ms", "ms", "lower", 0},
	{"store.write_ms", "ms", "lower", 0},
	{"artifact.decode_ms", "ms", "lower", 0},
	{"artifact.encode_ms", "ms", "lower", 0},

	{"runtime.alloc_mb_per_select", "MB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},

	{"bench.select_p99_ms", "ms", "lower", 0},
	{"bench.samples", "count", "higher", 0},
	{"bench.gomaxprocs", "count", "higher", 0},
	{"bench.ladder_gateway_ms", "ms", "lower", 0},
	{"bench.ladder_residual_pct", "%", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// value is one reported number with its unit, the wire shape of a metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]float64

// render keeps exactly the metrics defs names, attaching units. A missing
// metric is a bug in the benchmark, not a measurement.
func (m metricSet) render(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// print writes every measured metric by name and unit, in table order.
func (m metricSet) print(w io.Writer, workload string) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := m[d.Name]; ok {
				fmt.Fprintf(w, "%-14s %-34s %14.4f %s\n", workload, d.Name, v, d.Unit)
			}
		}
	}
}

// manifest renders BENCHMARK.json from the workload and metric tables.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		if !w.Local {
			doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
		}
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
