package modelhub

import (
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/synth"
)

func benchFixture(b *testing.B) (*Model, *datahub.Dataset) {
	b.Helper()
	w := synth.NewWorld(7)
	m, err := Materialize(w, Spec{
		Name: "bench/model", Task: datahub.TaskNLP, Arch: "bert", Params: 110,
		Domains:    map[string]float64{datahub.DomainNLI: 1},
		Capability: 0.7, SourceClasses: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	d, err := datahub.Generate(w, datahub.Spec{
		Name: "bench/ds", Task: datahub.TaskNLP,
		Domains: map[string]float64{datahub.DomainNLI: 1},
		Classes: 4, Separability: 2, Noise: 1,
	}, datahub.Sizes{})
	if err != nil {
		b.Fatal(err)
	}
	return m, d
}

// BenchmarkFeatureExtract measures one cold full-split extraction through
// the batched frame kernels (the per-build cost the cache amortizes away).
func BenchmarkFeatureExtract(b *testing.B) {
	m, d := benchFixture(b)
	b.SetBytes(int64(d.Train.Len() * FeatureDim * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.extractFrame(d.Train.X)
	}
}

// BenchmarkFeatureExtractLegacy is the historical per-example reference
// path, kept for before/after comparison in perf reports.
func BenchmarkFeatureExtractLegacy(b *testing.B) {
	m, d := benchFixture(b)
	rows := d.Train.X.Rows2D()
	b.SetBytes(int64(d.Train.Len() * FeatureDim * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		featuresPerExample(m, rows)
	}
}

// BenchmarkFeatureFrameCached measures the steady-state cache hit — what
// every trainer.Run after the first actually pays.
func BenchmarkFeatureFrameCached(b *testing.B) {
	m, d := benchFixture(b)
	m.FeatureFrame(d.Train.X)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FeatureFrame(d.Train.X)
	}
}
