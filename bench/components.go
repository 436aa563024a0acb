package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"twophase/internal/admission"
	"twophase/internal/artifact"
	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/lifecycle"
	"twophase/internal/lsq"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/perfmatrix"
	"twophase/internal/recall"
	"twophase/internal/service"
	"twophase/internal/shard"
	"twophase/internal/store"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

// componentSeed is the world the off-ladder timings run on: the same for
// every workload, so these numbers compare across runs of any of them.
const componentSeed = 42

// timed runs fn n times and returns the median of the durations it reports,
// in ms. fn times itself, so its own set-up stays outside the measurement.
func timed(n int, fn func() (time.Duration, error)) (float64, error) {
	ms := make([]float64, n)
	for i := range ms {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ms[i] = float64(d) / 1e6
	}
	return median(ms), nil
}

// since wraps a call that needs no set-up of its own.
func since(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
}

// perOp times n back-to-back calls and reports one call's share.
func perOp(n int, fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(n), nil
	}
}

// components times the pieces that are not rungs of the select ladder —
// offline build stages, the store and codec, the other strategies, kernels
// and the constant-time gates — by calling each layer's exported functions
// directly, on default-size worlds (test-size when short).
func components(ctx context.Context, short bool, m metricSet) error {
	sizes := datahub.Sizes{}
	heavy, light := 3, 9
	if short {
		sizes, heavy, light = testSizes, 1, 3
	}
	workers := runtime.GOMAXPROCS(0)
	opts := func(task string) core.Options {
		return core.Options{Task: task, Seed: componentSeed, Sizes: sizes, Workers: workers}
	}
	var firstErr error
	set := func(name string, scale float64, n int, fn func() (time.Duration, error)) {
		if firstErr != nil {
			return // later timings build on earlier results
		}
		v, err := timed(n, fn)
		if err != nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
		}
		m[name] = v * scale
	}

	// Offline build, whole and by stage.
	var fw *core.Framework
	set("core.build_nlp_ms", 1, heavy, since(func() (err error) {
		fw, err = core.Build(opts(datahub.TaskNLP))
		return err
	}))
	set("core.build_cv_ms", 1, heavy, since(func() error {
		_, err := core.Build(opts(datahub.TaskCV))
		return err
	}))
	if firstErr != nil {
		return firstErr
	}
	set("perfmatrix.build_ms", 1, heavy, func() (time.Duration, error) {
		// A fresh world each time: its models start with empty feature
		// caches, as in a real build.
		w := synth.NewWorld(componentSeed)
		cat, err := datahub.NewTaskCatalog(w, datahub.TaskNLP, sizes)
		if err != nil {
			return 0, err
		}
		repo, err := modelhub.NewTaskRepository(w, datahub.TaskNLP)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = perfmatrix.Build(repo, cat.Benchmarks(), fw.HP, componentSeed, workers)
		return time.Since(start), err
	})
	set("recall.prepare_ms", 1, light, since(func() error {
		_, err := recall.PrepareOfflineWith(fw.Matrix, fw.Recall, workers)
		return err
	}))

	// Codec, store, and the restore they add up to.
	key := lifecycle.Key{Task: datahub.TaskNLP, Seed: componentSeed}
	recallArt := fw.RecallArtifact()
	var matrixDoc, recallDoc []byte
	set("artifact.encode_ms", 1, light, since(func() (err error) {
		if matrixDoc, err = artifact.EncodeMatrix(fw.Matrix); err != nil {
			return err
		}
		recallDoc, err = artifact.EncodeRecall(recallArt)
		return err
	}))
	set("artifact.decode_ms", 1, light, since(func() error {
		if _, err := artifact.DecodeMatrix(matrixDoc); err != nil {
			return err
		}
		_, err := artifact.DecodeRecall(recallDoc)
		return err
	}))
	dir := filepath.Join(outDir, fmt.Sprintf("components-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	set("store.write_ms", 1, light, since(func() error {
		if err := st.PutMatrix(key.String(), fw.Matrix); err != nil {
			return err
		}
		return st.PutRecall(key.String(), recallArt)
	}))
	var arts core.Artifacts
	set("store.read_ms", 1, light, since(func() (err error) {
		if arts.Matrix, err = st.GetMatrix(key.String()); err != nil {
			return err
		}
		arts.Recall, err = st.GetRecall(key.String())
		return err
	}))
	set("core.assemble_ms", 1, light, since(func() error {
		_, err := core.AssembleArtifacts(opts(datahub.TaskNLP), arts)
		return err
	}))
	set("service.restore_ms", 1, light, since(func() error {
		svc, err := service.New(service.Options{Base: core.Options{Seed: componentSeed, Sizes: sizes}, StoreDir: dir})
		if err != nil {
			return err
		}
		if err := svc.Warm(ctx, []lifecycle.Key{key}); err != nil {
			return err
		}
		if svc.Builds() != 0 {
			return fmt.Errorf("restore ran an offline build")
		}
		return nil
	}))

	// One select per strategy, on warm feature caches.
	target := fw.Catalog.Targets()[0]
	if _, err := fw.SelectWith(ctx, target, core.SelectOptions{}); err != nil {
		return err
	}
	for _, strat := range []struct {
		metric string
		opts   core.SelectOptions
	}{
		{"core.select_sh_ms", core.SelectOptions{Strategy: core.StrategySH}},
		{"core.select_bf_ms", core.SelectOptions{Strategy: core.StrategyBF}},
		{"core.select_ensemble_ms", core.SelectOptions{Strategy: core.StrategyEnsemble}},
		{"core.select_lsq_ms", core.SelectOptions{Strategy: core.StrategyLSQ}},
		{"core.select_prefilter_ms", core.SelectOptions{PrefilterTopK: 4}},
	} {
		set(strat.metric, 1, light, since(func() error {
			_, err := fw.SelectWith(ctx, target, strat.opts)
			return err
		}))
	}
	model := fw.Repo.Models()[0]
	set("proxy.score_ms", 1, light, since(func() error {
		_, err := fw.Recall.Scorer.Score(model, target)
		return err
	}))
	set("lsq.rank_ms", 1, light, since(func() error {
		var ledger trainer.Ledger
		_, err := lsq.Rank(ctx, fw.Repo.Models(), target, lsq.Options{Workers: workers}, &ledger)
		return err
	}))

	// Training and kernels.
	run, err := trainer.NewRun(model, target, fw.HP, componentSeed, "bench")
	if err != nil {
		return err
	}
	set("trainer.epoch_us", 1e3, light, perOp(20, func() error {
		run.TrainEpoch()
		return nil
	}))
	set("trainer.run_us", 1e3, light, since(func() error {
		r, err := trainer.NewRun(model, target, fw.HP, componentSeed, "bench")
		if err != nil {
			return err
		}
		for e := 0; e < fw.HP.Epochs; e++ {
			r.TrainEpoch()
		}
		return nil
	}))
	set("modelhub.extract_ms", 1, light, func() (time.Duration, error) {
		x := target.Train.X.Clone() // a frame the model has never seen: one uncached extraction
		start := time.Now()
		model.FeatureFrame(x)
		return time.Since(start), nil
	})
	m["numeric.mulframe_gflops"] = mulFrameGFLOPS(light)

	// The constant-time gates every request passes.
	mgr, err := lifecycle.New(lifecycle.Options{Build: func(context.Context, lifecycle.Key) (*core.Framework, error) { return fw, nil }})
	if err != nil {
		return err
	}
	set("lifecycle.acquire_us", 1e3, light, perOp(1000, func() error {
		h, err := mgr.Get(ctx, key)
		if err != nil {
			return err
		}
		h.Release()
		return nil
	}))
	set("admission.admit_us", 1e3, light, func() (time.Duration, error) {
		// A fresh controller per sample, and fewer admits than its burst:
		// the uncontended fast path, never the rate limiter.
		ctrl := admission.NewController(admissionLimits)
		return perOp(int(admissionLimits.Burst)-100, func() error {
			release, _, err := ctrl.Admit(ctx, "bench", 0)
			if err != nil {
				return err
			}
			release()
			return nil
		})()
	})
	ring, err := shard.NewRing([]string{"http://" + loopback(backendPort0), "http://" + loopback(backendPort1)}, 0)
	if err != nil {
		return err
	}
	set("shard.owners_us", 1e3, light, perOp(1000, func() error {
		ring.Owners(shard.RouteKey(key.Task, key.Seed), 2)
		return nil
	}))
	return firstErr
}

// mulFrameGFLOPS is the sustained rate of the batched matrix kernel on a
// frame large enough for its row-block parallel path (2048×96 by 96×96),
// counting two flops per multiply-add.
func mulFrameGFLOPS(n int) float64 {
	const rowsX, rows, cols = 2048, 96, 96
	rng := numeric.NewRNG(7)
	mat := numeric.RandomMatrix(rng, rows, cols, 1.0)
	x := numeric.NewFrame(rowsX, cols)
	for i := range x.Data {
		x.Data[i] = rng.Norm()
	}
	bias := rng.NormVec(rows)
	out := numeric.NewFrame(rowsX, rows)
	ms, _ := timed(n, perOp(20, func() error {
		mat.MulFrameBias(x, bias, out)
		return nil
	}))
	return 2 * rowsX * rows * cols / (ms * 1e6)
}
