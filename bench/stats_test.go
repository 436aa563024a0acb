package main

import (
	"encoding/json"
	"math"
	"testing"

	"twophase/internal/lifecycle"
	"twophase/internal/shard"
)

func TestPercentiles(t *testing.T) {
	asc := sorted([]float64{9, 1, 5, 3, 7})
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5}, {90, 8.2}, {100, 9}} {
		if got := percentile(asc, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("an empty sample has no percentile")
	}
}

// The tail percentile keeps ten samples beyond it and never claims more
// than p99.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {20, 50}, {500, 98}, {1000, 99}, {100000, 99}} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPairedDeltaMedian(t *testing.T) {
	// A shared per-request swing of ±100 cancels; the constant 2 remains.
	a := []float64{102, 3, 52, 202, 12}
	b := []float64{100, 1, 50, 200, 10}
	if got := pairedDeltaMedian(a, b); got != 2 {
		t.Errorf("pairedDeltaMedian = %v, want 2", got)
	}
}

// spread must agree with Python's statistics.quantiles(v, n=4), which is
// what the driver computes.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11, 13, 15}, (14 - 10.5) / 12},
		{[]float64{7, 7, 7}, 0},
		{[]float64{3}, 0},
	} {
		if got := spread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSameCount(t *testing.T) {
	if !sameCount([]float64{18.375, 18.375, 18.375}) || sameCount([]float64{18.375, 18.375000001}) {
		t.Error("sameCount must hold only for identical values")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	count := metricDef{Name: "epochs", Better: "lower", Bound: 0.001}
	for _, c := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.6, 10.4}, "ok"},
		{lower, []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, "worse"},
		{lower, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "ok"}, // better is not worse
		{higher, []float64{100, 101, 99}, []float64{85, 86, 84}, "worse"},
		{lower, []float64{10, 14, 6}, []float64{10.2, 10.3, 10.1}, "unresolved"}, // a's own spread exceeds the bound
		{count, []float64{18.375, 18.375}, []float64{18.375, 18.375}, "ok"},
		{count, []float64{18.375, 18.375}, []float64{18.375, 18.376}, "unresolved"},
		{count, []float64{18.375, 18.375}, []float64{18.5, 18.5}, "worse"},
	} {
		if _, got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.def.Name, c.a, c.b, got, c.want)
		}
	}
}

// requestBytes renders the first n requests of a plan's cycle as the client
// would send them.
func requestBytes(t *testing.T, w workload, seed uint64, n int) string {
	t.Helper()
	p := newPlan(w, seed)
	var out []byte
	for k := 0; k < n; k++ {
		b, err := json.Marshal(p.request(p.Lap[k%len(p.Lap)], k))
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, b...), '\n')
	}
	return string(out)
}

// The same -seed must give byte-identical request sequences and a different
// one must not; on every workload but cheap_repeat no two requests of a run
// may be identical.
func TestSeedDeterminesRequests(t *testing.T) {
	for _, w := range workloads {
		n := 3 * len(newPlan(w, 1).Lap)
		if a, b := requestBytes(t, w, 1, n), requestBytes(t, w, 1, n); a != b {
			t.Errorf("%s: seed 1 gave two different sequences", w.Name)
		}
		if a, b := requestBytes(t, w, 1, n), requestBytes(t, w, 2, n); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", w.Name)
		}
		share := repeatShare(newPlan(w, 1), 0, n)
		if w.Shape == shapeRepeat {
			// Eight distinct bodies, however long the run.
			if want := 1 - 8/float64(n); math.Abs(share-want) > 1e-12 {
				t.Errorf("%s: repeat share %v over three laps, want %v", w.Name, share, want)
			}
		} else if share != 0 {
			t.Errorf("%s: repeat share %v, want 0", w.Name, share)
		}
	}
}

// A cold workload's cycle must never send a backend the same world twice in
// a row, across the lap boundary too, or its size-1 cache would hit.
func TestColdLapRotatesWorldsPerBackend(t *testing.T) {
	ring, err := shard.NewRing([]string{"http://" + loopback(backendPort0), "http://" + loopback(backendPort1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !w.cold() {
			continue
		}
		for seed := uint64(1); seed <= 50; seed++ {
			byOwner := make(map[string][]lifecycle.Key)
			for _, pl := range newPlan(w, seed).Lap {
				owner := ring.Owner(shard.RouteKey(pl.World.Task, pl.World.Seed))
				byOwner[owner] = append(byOwner[owner], pl.World)
			}
			if len(byOwner) != 2 {
				t.Fatalf("%s: %d backends own a world, want 2", w.Name, len(byOwner))
			}
			for owner, seq := range byOwner {
				for i := range seq {
					if seq[i] == seq[(i+1)%len(seq)] {
						t.Fatalf("%s seed %d: %s gets world %s twice in a row", w.Name, seed, owner, seq[i])
					}
				}
			}
		}
	}
}
