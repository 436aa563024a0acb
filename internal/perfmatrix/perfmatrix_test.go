package perfmatrix

import (
	"errors"
	"math"
	"slices"
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
	cells := repo.Len() * len(benches)
	if len(m.Val) != cells*m.HP.Epochs || len(m.Test) != cells {
		t.Fatalf("arrays hold %d val and %d test words for %d cells of %d epochs", len(m.Val), len(m.Test), cells, m.HP.Epochs)
	}
	for _, p := range append(append([]float64(nil), m.Val...), m.Test...) {
		if p < 0 || p > 1 {
			t.Fatalf("accuracy %v", p)
		}
	}
}

// TestCellOrder pins the arrays' layout against the runs they hold: cell
// (i, j) is model i fine-tuned on benchmark j, model-major, its curve
// epoch-innermost, and Test holds the run's final test accuracy.
func TestCellOrder(t *testing.T) {
	repo, benches, m := smallFixture(t)
	hp, ep := m.HP, m.HP.Epochs
	for _, c := range [][2]int{{0, 0}, {1, 2}, {3, 1}} {
		i, j := c[0], c[1]
		mod, err := repo.Get(m.Models[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := trainer.FineTune(mod, benches[j], hp, 42, "offline-matrix")
		if err != nil {
			t.Fatal(err)
		}
		cell := i*len(m.Datasets) + j
		for e, v := range want.Val {
			if math.Float64bits(m.Val[cell*ep+e]) != math.Float64bits(v) {
				t.Fatalf("cell (%d, %d) epoch %d: %v, the run recorded %v", i, j, e, m.Val[cell*ep+e], v)
			}
			if got := m.ValAt(i, e)[j]; math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("ValAt(%d, %d)[%d] = %v, want %v", i, e, j, got, v)
			}
		}
		if math.Float64bits(m.Test[cell]) != math.Float64bits(want.Test) || m.Vector(i)[j] != want.Test {
			t.Fatalf("cell (%d, %d): final test %v, the run recorded %v", i, j, m.Test[cell], want.Test)
		}
	}
	// A stage past the curve must not read the next cell's first epoch.
	defer func() {
		if recover() == nil {
			t.Fatal("ValAt past the last epoch returned values")
		}
	}()
	m.ValAt(0, ep)
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
	if !slices.Equal(a.Val, b.Val) || !slices.Equal(a.Test, b.Test) {
		t.Fatal("parallel builds diverged")
	}
}

// TestBuildWorkerCountInvariant pins the BuildWorkers contract at the
// matrix level: serial (1) and oversubscribed (3 workers for 12 cells)
// builds must agree bit for bit on every word with the default-budget
// fixture.
func TestBuildWorkerCountInvariant(t *testing.T) {
	repo, benches, base := smallFixture(t)
	for _, workers := range []int{1, 3} {
		m, err := Build(repo, benches, trainer.Default(datahub.TaskNLP), 42, workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, arr := range [][2][]float64{{base.Val, m.Val}, {base.Test, m.Test}} {
			if len(arr[0]) != len(arr[1]) {
				t.Fatalf("workers=%d: %d words, want %d", workers, len(arr[1]), len(arr[0]))
			}
			for k := range arr[0] {
				if math.Float64bits(arr[0][k]) != math.Float64bits(arr[1][k]) {
					t.Fatalf("workers=%d: word %d diverges", workers, k)
				}
			}
		}
	}
}

func TestVectorAndAvgAcc(t *testing.T) {
	_, _, m := smallFixture(t)
	v := m.Vector(1)
	if len(v) != len(m.Datasets) || &v[0] != &m.Test[len(m.Datasets)] {
		t.Fatalf("Vector(1) is not row 1 of Test")
	}
	var want float64
	for _, x := range v {
		want += x
	}
	want /= float64(len(v))
	if avg := m.AvgAcc(1); avg != want {
		t.Fatalf("avg %v != %v", avg, want)
	}
	vecs := m.Vectors()
	if vecs.N != len(m.Models) || !slices.Equal(vecs.Row(1), v) || &vecs.Data[0] == &m.Test[0] {
		t.Fatal("Vectors is not a copy of the matrix's rows")
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
