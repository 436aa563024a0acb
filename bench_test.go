// Package twophase_bench regenerates every table and figure of the paper
// as a testing.B benchmark. Each benchmark reports two custom metrics
// alongside time/allocs where meaningful:
// epochs/op for selection cost and acc for selected-model quality — the
// two quantities the paper's evaluation tracks.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The shared environment (both frameworks plus oracle caches) builds once
// per binary; individual benchmarks then measure their experiment's online
// portion.
package twophase_bench

import (
	"context"

	"sync"
	"testing"

	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/experiments"
	"twophase/internal/modelhub"
	"twophase/internal/perfmatrix"
	"twophase/internal/recall"
	"twophase/internal/selection"
	"twophase/internal/service"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

var (
	envOnce sync.Once
	env     *experiments.Env
)

func sharedEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		env = experiments.NewEnv(experiments.DefaultSeed)
	})
	return env
}

// benchExperiment runs one experiment id per iteration.
func benchExperiment(b *testing.B, id string) {
	e := sharedEnv(b)
	ex, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	// prime caches (framework build, oracles) outside the timer
	if _, err := ex.Run(e); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(e); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper artifact (ids as `experiments -list` prints them) ---

func BenchmarkFig1ModelSpread(b *testing.B)        { benchExperiment(b, "fig1") }
func BenchmarkTable1Clustering(b *testing.B)       { benchExperiment(b, "tab1") }
func BenchmarkTable2Memberships(b *testing.B)      { benchExperiment(b, "tab2") }
func BenchmarkTable3Singleton(b *testing.B)        { benchExperiment(b, "tab3") }
func BenchmarkFig3Curves(b *testing.B)             { benchExperiment(b, "fig3") }
func BenchmarkFig4ConvergenceGroups(b *testing.B)  { benchExperiment(b, "fig4") }
func BenchmarkFig5Recall(b *testing.B)             { benchExperiment(b, "fig5") }
func BenchmarkFig6TrendQuality(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkTable4Threshold(b *testing.B)        { benchExperiment(b, "tab4") }
func BenchmarkFig7SHvsFS(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkTable5Runtime(b *testing.B)          { benchExperiment(b, "tab5") }
func BenchmarkTable6EndToEnd(b *testing.B)         { benchExperiment(b, "tab6") }
func BenchmarkTable7CaseStudy(b *testing.B)        { benchExperiment(b, "tab7") }
func BenchmarkFig8LRSensitivity(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkTableXParamK(b *testing.B)           { benchExperiment(b, "tabX") }
func BenchmarkAblationTopK(b *testing.B)           { benchExperiment(b, "ablTopK") }
func BenchmarkAblationRepresentative(b *testing.B) { benchExperiment(b, "ablRep") }
func BenchmarkAblationTrendFilter(b *testing.B)    { benchExperiment(b, "ablTrend") }
func BenchmarkAblationProxy(b *testing.B)          { benchExperiment(b, "ablProxy") }

// --- end-to-end pipeline benchmarks with epoch/accuracy metrics ---

func frameworks(b *testing.B) (*core.Framework, *core.Framework) {
	b.Helper()
	e := sharedEnv(b)
	nlp, err := e.Framework(datahub.TaskNLP)
	if err != nil {
		b.Fatal(err)
	}
	cv, err := e.Framework(datahub.TaskCV)
	if err != nil {
		b.Fatal(err)
	}
	return nlp, cv
}

func benchSelect(b *testing.B, fw *core.Framework, target string) {
	d, err := fw.Catalog.Get(target)
	if err != nil {
		b.Fatal(err)
	}
	var epochs, acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := fw.Select(context.Background(), d)
		if err != nil {
			b.Fatal(err)
		}
		epochs += report.TotalEpochs()
		acc += report.Outcome.WinnerTest
	}
	b.ReportMetric(epochs/float64(b.N), "epochs/op")
	b.ReportMetric(acc/float64(b.N), "acc")
}

func BenchmarkSelectNLPTweet(b *testing.B) {
	nlp, _ := frameworks(b)
	benchSelect(b, nlp, "tweet_eval")
}

func BenchmarkSelectNLPMNLI(b *testing.B) {
	nlp, _ := frameworks(b)
	benchSelect(b, nlp, "LysandreJik/glue-mnli-train")
}

func BenchmarkSelectCVXRay(b *testing.B) {
	_, cv := frameworks(b)
	benchSelect(b, cv, "trpakov/chest-xray-classification")
}

func BenchmarkSelectCVBeans(b *testing.B) {
	_, cv := frameworks(b)
	benchSelect(b, cv, "beans")
}

func BenchmarkBruteForceNLP(b *testing.B) {
	nlp, _ := frameworks(b)
	d, err := nlp.Catalog.Get("tweet_eval")
	if err != nil {
		b.Fatal(err)
	}
	var epochs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := nlp.SelectWith(context.Background(), d, core.SelectOptions{Strategy: core.StrategyBF})
		if err != nil {
			b.Fatal(err)
		}
		epochs += float64(out.Ledger.TrainEpochs())
	}
	b.ReportMetric(epochs/float64(b.N), "epochs/op")
}

func BenchmarkSuccessiveHalvingNLP(b *testing.B) {
	nlp, _ := frameworks(b)
	d, err := nlp.Catalog.Get("tweet_eval")
	if err != nil {
		b.Fatal(err)
	}
	var epochs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := nlp.SelectWith(context.Background(), d, core.SelectOptions{Strategy: core.StrategySH})
		if err != nil {
			b.Fatal(err)
		}
		epochs += float64(out.Ledger.TrainEpochs())
	}
	b.ReportMetric(epochs/float64(b.N), "epochs/op")
}

// --- component micro-benchmarks ---

// BenchmarkBuildFramework measures the full offline phase (world
// synthesis, performance matrix, clustering, assembly) at the bench-suite
// split sizes — the number the flat-buffer numeric core and the batched
// trainer kernels exist to shrink.
func BenchmarkBuildFramework(b *testing.B) {
	sizes := datahub.Sizes{Train: 60, Val: 40, Test: 48}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(core.Options{Task: datahub.TaskNLP, Seed: 7, Sizes: sizes}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOfflineMatrixBuild(b *testing.B) {
	// The full offline phase: 40 models x 24 benchmarks x 5 epochs.
	w := synth.NewWorld(7)
	cat, err := datahub.NewTaskCatalog(w, datahub.TaskNLP, datahub.Sizes{})
	if err != nil {
		b.Fatal(err)
	}
	repo, err := modelhub.NewTaskRepository(w, datahub.TaskNLP)
	if err != nil {
		b.Fatal(err)
	}
	hp := trainer.Default(datahub.TaskNLP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perfmatrix.Build(repo, cat.Benchmarks(), hp, w.Seed, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFineTuneOneModel(b *testing.B) {
	nlp, _ := frameworks(b)
	d, err := nlp.Catalog.Get("tweet_eval")
	if err != nil {
		b.Fatal(err)
	}
	m := nlp.Repo.Models()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainer.FineTune(m, d, nlp.HP, nlp.Seed, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoarseRecallOnly(b *testing.B) {
	nlp, _ := frameworks(b)
	d, err := nlp.Catalog.Get("tweet_eval")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recall.CoarseRecall(nlp.Matrix, nlp.Repo, d, nlp.Recall, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFineSelectOnly(b *testing.B) {
	nlp, _ := frameworks(b)
	d, err := nlp.Catalog.Get("tweet_eval")
	if err != nil {
		b.Fatal(err)
	}
	rr, err := recall.CoarseRecall(nlp.Matrix, nlp.Repo, d, nlp.Recall, nil)
	if err != nil {
		b.Fatal(err)
	}
	cand, err := nlp.Repo.Subset(rr.Recalled)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := selection.FineSelect(context.Background(), cand.Models(), d, selection.FineSelectOptions{
			Config: selection.Config{HP: nlp.HP, Seed: nlp.Seed, Salt: "two-phase"},
			Matrix: nlp.Matrix,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- serving-layer benchmarks ---

// benchServiceBatch measures one whole-catalog NLP batch per iteration
// through the selection service. The framework builds once outside the
// timer, so the measurement is pure online serving.
func benchServiceBatch(b *testing.B, workers, concurrency int) {
	b.Helper()
	svc, err := service.New(service.Options{
		Base:        core.Options{Seed: experiments.DefaultSeed},
		Workers:     workers,
		Concurrency: concurrency,
	})
	if err != nil {
		b.Fatal(err)
	}
	targets, err := svc.Targets(context.Background(), datahub.TaskNLP) // also primes the framework cache
	if err != nil {
		b.Fatal(err)
	}
	var epochs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := svc.Do(context.Background(), service.Request{Task: datahub.TaskNLP, Targets: targets})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			epochs += r.Report.TotalEpochs()
		}
	}
	b.ReportMetric(epochs/float64(b.N), "epochs/op")
}

// BenchmarkServiceSequentialSelect is the baseline: one selection at a
// time, one candidate trained at a time.
func BenchmarkServiceSequentialSelect(b *testing.B) { benchServiceBatch(b, 1, 1) }

// BenchmarkServiceParallelSelect fans selections and per-round candidate
// training across all CPUs; on 4+ cores wall-clock should improve >= 2x
// over BenchmarkServiceSequentialSelect while the reported epochs/op (and
// every selection result) stay identical.
func BenchmarkServiceParallelSelect(b *testing.B) { benchServiceBatch(b, 0, 0) }

func BenchmarkExtensionEnsemble(b *testing.B) { benchExperiment(b, "extEnsemble") }

func BenchmarkEnsembleSelectK3(b *testing.B) {
	nlp, _ := frameworks(b)
	d, err := nlp.Catalog.Get("LysandreJik/glue-mnli-train")
	if err != nil {
		b.Fatal(err)
	}
	rr, err := recall.CoarseRecall(nlp.Matrix, nlp.Repo, d, nlp.Recall, nil)
	if err != nil {
		b.Fatal(err)
	}
	cand, err := nlp.Repo.Subset(rr.Recalled)
	if err != nil {
		b.Fatal(err)
	}
	opts := selection.FineSelectOptions{
		Config: selection.Config{HP: nlp.HP, Seed: nlp.Seed, Salt: "two-phase"},
		Matrix: nlp.Matrix,
	}
	var acc, epochs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := selection.EnsembleSelect(context.Background(), cand.Models(), d, opts, 3)
		if err != nil {
			b.Fatal(err)
		}
		acc += out.WinnerTest
		epochs += float64(out.Ledger.TrainEpochs())
	}
	b.ReportMetric(acc/float64(b.N), "acc")
	b.ReportMetric(epochs/float64(b.N), "epochs/op")
}
