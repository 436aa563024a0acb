package perfmatrix

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

// smallFixture builds a 4-model x 3-benchmark matrix quickly.
func smallFixture(t *testing.T) (*modelhub.Repository, []*datahub.Dataset, *Matrix) {
	t.Helper()
	w := synth.NewWorld(42)
	specs := modelhub.NLPSpecs()[:4]
	repo, err := modelhub.NewRepository(w, datahub.TaskNLP, specs)
	if err != nil {
		t.Fatal(err)
	}
	var benches []*datahub.Dataset
	for _, spec := range datahub.NLPBenchmarks()[:3] {
		d, err := datahub.Generate(w, spec, datahub.Sizes{Train: 60, Val: 40, Test: 60})
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, d)
	}
	m, err := Build(repo, benches, trainer.Default(datahub.TaskNLP), w.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return repo, benches, m
}

func TestBuildComplete(t *testing.T) {
	repo, benches, m := smallFixture(t)
	if len(m.Models) != repo.Len() || len(m.Datasets) != len(benches) {
		t.Fatalf("matrix shape %dx%d", len(m.Models), len(m.Datasets))
	}
	if len(m.Entries) != repo.Len()*len(benches) {
		t.Fatalf("entries %d", len(m.Entries))
	}
	for _, model := range m.Models {
		for _, ds := range m.Datasets {
			e, err := m.Entry(model, ds)
			if err != nil {
				t.Fatal(err)
			}
			if len(e.Val) != m.Epochs || len(e.Test) != m.Epochs {
				t.Fatalf("curve lengths %d/%d", len(e.Val), len(e.Test))
			}
			p, err := m.Perf(model, ds)
			if err != nil {
				t.Fatal(err)
			}
			if p < 0 || p > 1 {
				t.Fatalf("perf %v", p)
			}
		}
	}
}

func TestBuildRejectsTargets(t *testing.T) {
	w := synth.NewWorld(42)
	repo, err := modelhub.NewRepository(w, datahub.TaskNLP, modelhub.NLPSpecs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	target, err := datahub.Generate(w, datahub.NLPTargets()[0], datahub.Sizes{Train: 20, Val: 10, Test: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(repo, []*datahub.Dataset{target}, trainer.Default(datahub.TaskNLP), 42, 0); err == nil {
		t.Fatal("target dataset accepted as benchmark")
	}
	if _, err := Build(repo, nil, trainer.Default(datahub.TaskNLP), 42, 0); err == nil {
		t.Fatal("empty benchmark list accepted")
	}
}

func TestBuildDeterministicDespiteParallelism(t *testing.T) {
	_, _, a := smallFixture(t)
	_, _, b := smallFixture(t)
	for k, ea := range a.Entries {
		eb := b.Entries[k]
		for i := range ea.Val {
			if ea.Val[i] != eb.Val[i] {
				t.Fatal("parallel builds diverged")
			}
		}
	}
}

// TestBuildWorkerCountInvariant pins the BuildWorkers contract at the
// matrix level: serial (1) and oversubscribed (3 workers for 12 cells)
// builds must agree bit for bit on every curve point with the default-
// budget fixture.
func TestBuildWorkerCountInvariant(t *testing.T) {
	repo, benches, base := smallFixture(t)
	for _, workers := range []int{1, 3} {
		m, err := Build(repo, benches, trainer.Default(datahub.TaskNLP), 42, workers)
		if err != nil {
			t.Fatal(err)
		}
		for k, eb := range base.Entries {
			em, ok := m.Entries[k]
			if !ok {
				t.Fatalf("workers=%d: missing entry %q", workers, k)
			}
			for i := range eb.Val {
				if math.Float64bits(eb.Val[i]) != math.Float64bits(em.Val[i]) ||
					math.Float64bits(eb.Test[i]) != math.Float64bits(em.Test[i]) {
					t.Fatalf("workers=%d: curve %q diverges at epoch %d", workers, k, i)
				}
			}
		}
	}
}

func TestVectorAndAvgAcc(t *testing.T) {
	_, _, m := smallFixture(t)
	v, err := m.Vector(m.Models[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != len(m.Datasets) {
		t.Fatalf("vector len %d", len(v))
	}
	avg, err := m.AvgAcc(m.Models[0])
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, x := range v {
		want += x
	}
	want /= float64(len(v))
	if avg != want {
		t.Fatalf("avg %v != %v", avg, want)
	}
	if _, err := m.Vector("missing"); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestValCurves(t *testing.T) {
	_, _, m := smallFixture(t)
	vals, finals, err := m.ValCurves(m.Models[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(m.Datasets) || len(finals) != len(m.Datasets) {
		t.Fatal("ValCurves lengths wrong")
	}
	for i, ds := range m.Datasets {
		e, err := m.Entry(m.Models[1], ds)
		if err != nil {
			t.Fatal(err)
		}
		if finals[i] != e.FinalTest() {
			t.Fatal("final mismatch")
		}
	}
}

func TestEntryFinalTestEmpty(t *testing.T) {
	e := &Entry{}
	if e.FinalTest() != 0 {
		t.Fatal("empty entry final should be 0")
	}
}

// TestMemoComputesOncePerKeyPerMatrix: racing first askers of one key
// share one computation (errors included), distinct keys and distinct
// matrices never share a value. Run with -race.
func TestMemoComputesOncePerKeyPerMatrix(t *testing.T) {
	type key struct{ name string }
	a, b := &Matrix{}, &Matrix{}
	var calls atomic.Int64
	compute := func(v int) func() (any, error) {
		return func() (any, error) {
			calls.Add(1)
			return v, nil
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := a.Memo(key{"x"}, compute(1)); err != nil || v.(int) != 1 {
				t.Errorf("a[x] = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("16 racing askers computed %d times, want 1", got)
	}
	if v, _ := a.Memo(key{"y"}, compute(2)); v.(int) != 2 {
		t.Fatalf("a[y] = %v, want its own value 2", v)
	}
	if v, _ := b.Memo(key{"x"}, compute(3)); v.(int) != 3 {
		t.Fatalf("b[x] = %v, want its own value 3 (not a's)", v)
	}
	if v, _ := a.Memo(key{"x"}, compute(4)); v.(int) != 1 {
		t.Fatalf("a[x] = %v after a second compute was offered, want the first value 1", v)
	}
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := a.Memo(key{"bad"}, func() (any, error) { calls.Add(1); return nil, boom }); err != boom {
			t.Fatalf("a[bad] error = %v, want boom", err)
		}
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("%d computations in total, want 4 (x, y, b's x, bad)", got)
	}
}
