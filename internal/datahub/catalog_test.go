package datahub

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"twophase/internal/numeric"
	"twophase/internal/synth"
)

// sameBits fails unless a and b hold bit-identical examples, labels and
// class means.
func sameBits(t *testing.T, what string, a, b *Dataset) {
	t.Helper()
	if a.Name != b.Name || !reflect.DeepEqual(a.Centers, b.Centers) {
		t.Fatalf("%s: spec or centers differ", what)
	}
	for _, s := range [][2]Split{{a.Train, b.Train}, {a.Val, b.Val}, {a.Test, b.Test}} {
		if !reflect.DeepEqual(s[0].Y, s[1].Y) {
			t.Fatalf("%s: labels differ", what)
		}
		if !sameFrameBits(s[0].X, s[1].X) {
			t.Fatalf("%s: examples differ", what)
		}
	}
}

func sameFrameBits(a, b *numeric.Frame) bool {
	if a.N != b.N || a.D != b.D || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestCatalogGetMatchesGenerate: generating lazily, in any order, is the
// eager Generate bit for bit. Get walks every spec of both tasks in
// reverse on one world; Generate walks them forward on a fresh world of
// the same seed, at the default sizes (a zero Sizes) and at test sizes.
// Dataset generation is the root of every golden, so this also runs in
// CI's arm64 job.
func TestCatalogGetMatchesGenerate(t *testing.T) {
	for _, sizes := range []Sizes{{}, {Train: 60, Val: 40, Test: 48}} {
		for _, task := range []string{TaskNLP, TaskCV} {
			c, err := NewTaskCatalog(synth.NewWorld(42), task, sizes)
			if err != nil {
				t.Fatal(err)
			}
			if want := sizes.resolve(); c.Sizes != want {
				t.Fatalf("catalog sizes %+v, want %+v", c.Sizes, want)
			}
			specs, _ := TaskTargets(task)
			if task == TaskNLP {
				specs = append(NLPBenchmarks(), specs...)
			} else {
				specs = append(CVBenchmarks(), specs...)
			}
			lazy := make([]*Dataset, len(specs))
			for i := len(specs) - 1; i >= 0; i-- {
				if lazy[i], err = c.Get(specs[i].Name); err != nil {
					t.Fatal(err)
				}
			}
			fresh := synth.NewWorld(42)
			for i, spec := range specs {
				want, err := Generate(fresh, spec, sizes)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, task+" "+spec.Name, lazy[i], want)
			}
		}
	}
}

// TestCatalogGetGeneratesOnce: racing first readers of one name share one
// generation and one dataset. Run with -race.
func TestCatalogGetGeneratesOnce(t *testing.T) {
	c, err := NewTaskCatalog(synth.NewWorld(42), TaskNLP, Sizes{Train: 10, Val: 5, Test: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := Generations()
	got := make([]*Dataset, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := c.Get("tweet_eval")
			if err != nil {
				t.Error(err)
			}
			got[g] = d
		}()
	}
	wg.Wait()
	if n := Generations() - before; n != 1 {
		t.Fatalf("16 concurrent Gets generated %d datasets, want 1", n)
	}
	for g, d := range got {
		if d != got[0] {
			t.Fatalf("reader %d got another dataset", g)
		}
	}
}

// TestNewTaskCatalogGeneratesNothing: a catalog is its specs until read.
func TestNewTaskCatalogGeneratesNothing(t *testing.T) {
	before := Generations()
	for _, task := range []string{TaskNLP, TaskCV} {
		if _, err := NewTaskCatalog(synth.NewWorld(42), task, Sizes{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := Generations() - before; n != 0 {
		t.Fatalf("NewTaskCatalog generated %d datasets, want 0", n)
	}
}

// TestBenchmarksKeepsNone: each Benchmarks call generates the benchmark
// datasets afresh for its caller, the same data every time, and the
// catalog keeps none of them.
func TestBenchmarksKeepsNone(t *testing.T) {
	c, err := NewTaskCatalog(synth.NewWorld(42), TaskCV, Sizes{Train: 10, Val: 5, Test: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := Generations()
	a, b := c.Benchmarks(), c.Benchmarks()
	if n := Generations() - before; n != 2*int64(len(CVBenchmarks())) {
		t.Fatalf("two Benchmarks calls generated %d datasets, want %d", n, 2*len(CVBenchmarks()))
	}
	if !reflect.DeepEqual(c.BenchmarkNames(), namesOf(a)) {
		t.Fatalf("Benchmarks %v, BenchmarkNames %v", namesOf(a), c.BenchmarkNames())
	}
	for i := range a {
		if a[i] == b[i] {
			t.Fatalf("%s: both calls returned one dataset", a[i].Name)
		}
		sameBits(t, a[i].Name, a[i], b[i])
	}
	for _, e := range c.ordered {
		if e.d != nil {
			t.Fatalf("catalog keeps %s", e.spec.Name)
		}
	}
}

func namesOf(ds []*Dataset) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

// TestNewCatalogRejectsBadSpecs: the checks Generate applies still fail
// the catalog at construction, before anything is generated.
func TestNewCatalogRejectsBadSpecs(t *testing.T) {
	w := synth.NewWorld(42)
	oneClass := testSpec()
	oneClass.Classes = 1
	before := Generations()
	if _, err := newCatalog(w, Sizes{Train: 5, Val: 5, Test: 5}, []Spec{oneClass}); err == nil {
		t.Fatal("1-class dataset accepted")
	}
	for _, sizes := range []Sizes{{Train: -1, Val: 5, Test: 5}, {Train: 5, Val: 0, Test: 5}} {
		if _, err := NewTaskCatalog(w, TaskNLP, sizes); err == nil {
			t.Fatalf("split sizes %+v accepted", sizes)
		}
	}
	if n := Generations() - before; n != 0 {
		t.Fatalf("rejected catalogs generated %d datasets", n)
	}
}
