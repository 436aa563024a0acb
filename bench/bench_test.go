package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// fleetTest points the run's files at bench/out/test and skips when the
// fixed ports are taken: a busy port is a fact about the machine, and must
// not fail the repository's tests.
func fleetTest(t *testing.T) {
	t.Helper()
	lns, err := listen()
	if err != nil {
		t.Skipf("skipping fleet test: %v", err)
	}
	for _, ln := range lns {
		ln.Close()
	}
	old := outDir
	outDir = filepath.Join("out", "test")
	t.Cleanup(func() {
		os.RemoveAll(outDir)
		outDir = old
	})
}

func shortConfig(w workload) config {
	return config{Workload: w.short(), Seed: 1, Measure: 0, Setups: 1, EndToEnd: true, PerLayer: true}
}

// TestBenchShort runs every workload end to end at test size — one measured
// lap, a one-lap traced pass, the component timings — so that `go test
// ./...` keeps the benchmark from rotting.
func TestBenchShort(t *testing.T) {
	fleetTest(t)
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := shortConfig(w)
			var ref reference
			cfg.corrupt = func(r reference) { ref = r } // look, don't touch
			res, all, err := runWorkload(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || all["fail_share"] != 0 {
				t.Fatalf("%d of %d requests failed (fail_share %v)", res.Failed, res.Attempted, all["fail_share"])
			}
			// epochs_per_select is a count: it must equal the reference's
			// mean over one lap to the digit.
			p := newPlan(cfg.Workload, cfg.Seed)
			var epochs float64
			var selects int
			for _, pl := range p.Lap {
				for _, target := range pl.Targets {
					epochs += ref[answerKey{pl.World, target}].Epochs
					selects++
				}
			}
			if want := exact(epochs / float64(selects)); all["epochs_per_select"] != want {
				t.Errorf("epochs_per_select = %v, want exactly %v", all["epochs_per_select"], want)
			}
			for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				v, ok := res.Metrics[def.Name]
				if !ok || v.Unit == "" || v.Unit != def.Unit {
					t.Errorf("%s: emitted as %+v (present %v), want unit %q", def.Name, v, ok, def.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v", def.Name, v.Value)
				}
			}
			if _, err := os.Stat(filepath.Join(outDir, "trace_"+w.Name+".json")); err != nil {
				t.Errorf("traced pass left no trace file: %v", err)
			}
			wantHits := 1.0
			if w.cold() {
				wantHits = 0
			}
			if all["lifecycle.hit_ratio"] != wantHits {
				t.Errorf("lifecycle.hit_ratio = %v, want %v", all["lifecycle.hit_ratio"], wantHits)
			}
		})
	}
}

// One corrupted reference answer must surface as failed requests, not as a
// passing run: the correctness check is what makes the timings mean
// anything.
func TestCorruptedReferenceFailsRequests(t *testing.T) {
	fleetTest(t)
	w, err := workloadByName("sweep_single")
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortConfig(w)
	cfg.PerLayer = false
	cfg.corrupt = func(ref reference) {
		lap := newPlan(cfg.Workload, cfg.Seed).Lap
		victim := answerKey{lap[0].World, lap[0].Targets[0]}
		a := ref[victim]
		a.Winner += "-corrupted"
		ref[victim] = a
	}
	res, all, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The victim is requested once or twice a lap; nothing else may fail.
	if res.Correct || res.Failed < 1 || res.Failed > 2 || all["fail_share"] <= 0 {
		t.Fatalf("one corrupted answer in a one-lap run: %+v, fail_share %v", res, all["fail_share"])
	}
}

// BENCHMARK.json is generated from the tables; a stale file is a bug.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
}
