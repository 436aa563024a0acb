package trainer

import (
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/synth"
)

// benchWorld builds one (model, dataset) pair at the given split sizes.
func benchWorld(b *testing.B, sizes datahub.Sizes) (*modelhub.Model, *datahub.Dataset) {
	b.Helper()
	w := synth.NewWorld(7)
	cat, err := datahub.NewTaskCatalog(w, datahub.TaskNLP, sizes)
	if err != nil {
		b.Fatal(err)
	}
	repo, err := modelhub.NewTaskRepository(w, datahub.TaskNLP)
	if err != nil {
		b.Fatal(err)
	}
	return repo.Models()[0], cat.Targets()[0]
}

// BenchmarkTrainEpoch measures the steady-state cost of one training
// epoch (SGD pass + batched validation scoring) on a warm run. This is
// the unit the paper's cost model charges, and the hot loop every
// selection strategy spins; allocs/op must stay at zero.
func BenchmarkTrainEpoch(b *testing.B) {
	m, d := benchWorld(b, datahub.Sizes{})
	run, err := NewRun(m, d, Default(datahub.TaskNLP), 7, "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.TrainEpoch()
		// Keep the recorded curve from growing without bound (and from
		// dominating allocations): the kernel cost is per-epoch, not
		// per-history.
		if len(run.curve.Val) >= 64 {
			run.curve.Val = run.curve.Val[:0]
		}
	}
}

// BenchmarkCandidateRun measures what one fine-selection candidate
// actually costs end to end — NewRun (head init + cached feature
// lookup) plus the full epoch budget — and reports per-epoch throughput.
// Before the shared feature cache, NewRun re-extracted every split and
// dominated this number.
func BenchmarkCandidateRun(b *testing.B) {
	m, d := benchWorld(b, datahub.Sizes{})
	hp := Default(datahub.TaskNLP)
	// Warm the shared feature cache once, as any earlier run (proxy
	// scoring, a previous strategy, a previous round) would have.
	if _, err := NewRun(m, d, hp, 7, "bench"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := NewRun(m, d, hp, 7, "bench")
		if err != nil {
			b.Fatal(err)
		}
		for e := 0; e < hp.Epochs; e++ {
			run.TrainEpoch()
		}
	}
	b.ReportMetric(float64(b.N*hp.Epochs)/b.Elapsed().Seconds(), "epochs/sec")
}
