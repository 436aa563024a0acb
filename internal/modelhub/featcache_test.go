package modelhub

import (
	"math"
	"sync"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/numeric"
	"twophase/internal/synth"
)

func cacheFixture(t *testing.T) (*Model, *datahub.Dataset) {
	t.Helper()
	w := synth.NewWorld(42)
	m, err := Materialize(w, testModelSpec("cache/model", map[string]float64{datahub.DomainNLI: 1}, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	d, err := datahub.Generate(w, datahub.Spec{
		Name: "cache/ds", Task: datahub.TaskNLP,
		Domains: map[string]float64{datahub.DomainNLI: 1},
		Classes: 3, Separability: 2, Noise: 1,
	}, datahub.Sizes{Train: 40, Val: 20, Test: 20})
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// TestFeatureFrameMatchesFeaturesBitwise pins the tentpole invariant: the
// batched frame extractor must agree with the historical per-example
// path exactly — not approximately — on every element.
func TestFeatureFrameMatchesFeaturesBitwise(t *testing.T) {
	m, d := cacheFixture(t)
	for _, split := range []datahub.Split{d.Train, d.Val, d.Test} {
		frame := m.FeatureFrame(split.X)
		legacy := featuresPerExample(m, split.X.Rows2D())
		if frame.N != len(legacy) || frame.D != FeatureDim {
			t.Fatalf("frame shape %dx%d, legacy %dx%d", frame.N, frame.D, len(legacy), FeatureDim)
		}
		for i, row := range legacy {
			for j, want := range row {
				if got := frame.At(i, j); got != want {
					t.Fatalf("feature[%d][%d] = %x, legacy path %x", i, j, got, want)
				}
			}
		}
	}
}

// TestFeatureFrameCachedOnce: repeated extraction of the same split frame
// must hit the cache — same pointer back, exactly one extraction pass.
func TestFeatureFrameCachedOnce(t *testing.T) {
	m, d := cacheFixture(t)
	before := Extractions()
	first := m.FeatureFrame(d.Train.X)
	for i := 0; i < 5; i++ {
		if got := m.FeatureFrame(d.Train.X); got != first {
			t.Fatal("cache returned a different frame for the same split")
		}
	}
	if got := Extractions() - before; got != 1 {
		t.Fatalf("%d extraction passes for 6 lookups, want 1", got)
	}
}

// TestFeatureFrameLRUEviction: overflowing the per-model cache evicts the
// least recently used entry but never invalidates frames already handed
// out.
func TestFeatureFrameLRUEviction(t *testing.T) {
	m, _ := cacheFixture(t)
	frames := make([]*numeric.Frame, m.featBound+1)
	for i := range frames {
		frames[i] = numeric.NewFrame(3, synth.InputDim)
		frames[i].Data[0] = float64(i + 1)
	}
	out := make([]*numeric.Frame, len(frames))
	for i, f := range frames {
		out[i] = m.FeatureFrame(f)
	}
	// frames[0] is the LRU victim: re-requesting it must re-extract ...
	before := Extractions()
	again := m.FeatureFrame(frames[0])
	if got := Extractions() - before; got != 1 {
		t.Fatalf("evicted entry re-extraction passes = %d, want 1", got)
	}
	// ... to bit-identical contents, while the old handle stays usable.
	for j := range out[0].Data {
		if out[0].Data[j] != again.Data[j] {
			t.Fatal("re-extracted frame differs from the evicted one")
		}
	}
	// The most recent entries are still cached.
	before = Extractions()
	m.FeatureFrame(frames[len(frames)-1])
	if got := Extractions() - before; got != 0 {
		t.Fatalf("fresh entry missed the cache (%d passes)", got)
	}
}

// TestFeatureFrameConcurrent hammers one model's cache from many
// goroutines (the serving layer's pattern: parallel candidate training
// against shared models). Run with -race.
func TestFeatureFrameConcurrent(t *testing.T) {
	m, d := cacheFixture(t)
	want := m.FeatureFrame(d.Train.X)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := m.FeatureFrame(d.Train.X); got != want {
					panic("concurrent lookup returned a different frame")
				}
			}
		}()
	}
	wg.Wait()
}

// TestSourceDistributionsMatchHeadBitwise: the cached distributions are
// the source head applied to the cached features, row for row — also for a
// prefix, which is what the proxy scorers read.
func TestSourceDistributionsMatchHeadBitwise(t *testing.T) {
	m, d := cacheFixture(t)
	for _, split := range []datahub.Split{d.Train, d.Val, d.Test} {
		got := m.SourceDistributions(split.X)
		for _, n := range []int{1, split.X.N / 2, split.X.N} {
			feats := m.FeatureFrame(split.X).Slice(0, n)
			want := numeric.NewFrame(n, m.SourceClasses)
			m.SourceProbsFrame(feats, want)
			view := got.Slice(0, n)
			for i := 0; i < n; i++ {
				single := sourceProbs(m, feats.Row(i))
				for z := range single {
					if math.Float64bits(view.At(i, z)) != math.Float64bits(want.At(i, z)) ||
						math.Float64bits(view.At(i, z)) != math.Float64bits(single[z]) {
						t.Fatalf("prefix %d row %d class %d: cached %x, frame pass %x, per-example %x",
							n, i, z, view.At(i, z), want.At(i, z), single[z])
					}
				}
			}
		}
	}
}

// TestSourceDistributionsLiveAndDieWithTheEntry: one source-head pass per
// cached split however often it is asked for; once the split's entry is
// evicted the distributions go with it and are recomputed from the fresh
// extraction, never served from a second cache.
func TestSourceDistributionsLiveAndDieWithTheEntry(t *testing.T) {
	m, d := cacheFixture(t)
	before := SourceHeadPasses()
	first := m.SourceDistributions(d.Train.X)
	for i := 0; i < 5; i++ {
		if got := m.SourceDistributions(d.Train.X); got != first {
			t.Fatal("cached split returned a different distribution frame")
		}
	}
	if got := SourceHeadPasses() - before; got != 1 {
		t.Fatalf("%d source-head passes for 6 lookups, want 1", got)
	}
	// Asking for features alone never runs the head.
	m.FeatureFrame(d.Val.X)
	if got := SourceHeadPasses() - before; got != 1 {
		t.Fatalf("FeatureFrame ran a source-head pass (%d total)", got)
	}

	// Touch as many other splits as the cache holds: the train entry is the
	// LRU victim.
	for i := 0; i < m.featBound; i++ {
		m.FeatureFrame(numeric.NewFrame(2, synth.InputDim))
	}
	extBefore, headBefore := Extractions(), SourceHeadPasses()
	again := m.SourceDistributions(d.Train.X)
	if got := Extractions() - extBefore; got != 1 {
		t.Fatalf("evicted split re-extraction passes = %d, want 1", got)
	}
	if got := SourceHeadPasses() - headBefore; got != 1 {
		t.Fatalf("evicted split source-head passes = %d, want 1 (stale distributions served?)", got)
	}
	if again == first {
		t.Fatal("evicted split served the old distribution frame")
	}
	for j := range first.Data {
		if math.Float64bits(first.Data[j]) != math.Float64bits(again.Data[j]) {
			t.Fatal("recomputed distributions differ from the evicted ones")
		}
	}

	// ReleaseFeatures empties the cache; the old handle stays readable.
	m.ReleaseFeatures()
	if n := m.CachedSplits(); n != 0 {
		t.Fatalf("%d splits cached after ReleaseFeatures", n)
	}
	headBefore = SourceHeadPasses()
	m.SourceDistributions(d.Train.X)
	if got := SourceHeadPasses() - headBefore; got != 1 {
		t.Fatalf("released split source-head passes = %d, want 1", got)
	}
	if n := m.CachedSplits(); n != 1 {
		t.Fatalf("%d splits cached after one lookup, want 1", n)
	}
}

// TestSourceDistributionsConcurrent: racing first askers of one cold split
// share one extraction and one source-head pass. Run with -race.
func TestSourceDistributionsConcurrent(t *testing.T) {
	m, d := cacheFixture(t)
	extBefore, headBefore := Extractions(), SourceHeadPasses()
	got := make([]*numeric.Frame, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = m.SourceDistributions(d.Train.X)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d got a different distribution frame", g)
		}
	}
	if e, h := Extractions()-extBefore, SourceHeadPasses()-headBefore; e != 1 || h != 1 {
		t.Fatalf("%d extractions and %d source-head passes for 16 racing askers, want 1 and 1", e, h)
	}
}

// TestFeatureCacheBoundIsTheTargetCatalog: for both task families a model
// keeps exactly one extraction per split of its family's target catalog —
// every target's train, val and test resident at once, re-read in any order
// without a pass — and the first split beyond the catalog evicts.
func TestFeatureCacheBoundIsTheTargetCatalog(t *testing.T) {
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		w := synth.NewWorld(42)
		spec := testModelSpec("bound/"+task, nil, 0.6)
		spec.Task = task
		m, err := Materialize(w, spec)
		if err != nil {
			t.Fatal(err)
		}
		targets, err := datahub.TaskTargets(task)
		if err != nil {
			t.Fatal(err)
		}
		var splits []*numeric.Frame
		for _, ts := range targets {
			d, err := datahub.Generate(w, ts, datahub.Sizes{Train: 12, Val: 8, Test: 10})
			if err != nil {
				t.Fatal(err)
			}
			splits = append(splits, d.Train.X, d.Val.X, d.Test.X)
		}
		if m.featBound != len(splits) {
			t.Fatalf("%s: bound %d, the target catalog has %d splits", task, m.featBound, len(splits))
		}

		for _, x := range splits {
			m.FeatureFrame(x)
		}
		before := Extractions()
		for lap := 0; lap < 2; lap++ {
			for _, x := range splits {
				m.FeatureFrame(x)
			}
		}
		if got := Extractions() - before; got != 0 {
			t.Fatalf("%s: %d extraction passes re-reading a resident catalog, want 0", task, got)
		}
		if got := m.CachedSplits(); got != len(splits) {
			t.Fatalf("%s: %d splits resident, want the whole catalog (%d)", task, got, len(splits))
		}

		// One frame past the catalog: the least recently used split goes.
		m.FeatureFrame(numeric.NewFrame(2, synth.InputDim))
		if got := m.CachedSplits(); got != len(splits) {
			t.Fatalf("%s: %d splits resident past the bound, want %d", task, got, len(splits))
		}
		before = Extractions()
		m.FeatureFrame(splits[0])
		if got := Extractions() - before; got != 1 {
			t.Fatalf("%s: LRU split re-read ran %d passes, want 1 (it should have been evicted)", task, got)
		}
	}
}

// TestFeatureCacheEvictionNeverChangesAFrame is the property behind
// "feature-cache eviction order never changes a report": whatever order
// splits are asked for in, over more frames than the cache holds, every
// lookup returns the bits extractFrame computes (features and source
// distributions both), and a handle taken before its entry was evicted
// stays valid and unchanged.
func TestFeatureCacheEvictionNeverChangesAFrame(t *testing.T) {
	m, _ := cacheFixture(t)
	rng := numeric.NewRNG(20260928)
	inputs := make([]*numeric.Frame, 2*m.featBound+3)
	wantFeats := make([]*numeric.Frame, len(inputs))
	wantProbs := make([]*numeric.Frame, len(inputs))
	for i := range inputs {
		inputs[i] = numeric.NewFrame(1+rng.Intn(6), synth.InputDim)
		for j := range inputs[i].Data {
			inputs[i].Data[j] = rng.Norm()
		}
		wantFeats[i] = m.extractFrame(inputs[i])
		wantProbs[i] = numeric.NewFrame(inputs[i].N, m.SourceClasses)
		m.SourceProbsFrame(wantFeats[i], wantProbs[i])
	}
	sameBits := func(got, want *numeric.Frame) bool {
		if got.N != want.N || got.D != want.D {
			return false
		}
		for j := range want.Data {
			if math.Float64bits(got.Data[j]) != math.Float64bits(want.Data[j]) {
				return false
			}
		}
		return true
	}

	type handle struct {
		frame *numeric.Frame
		input int
		probs bool
	}
	var held []handle
	before := Extractions()
	for step := 0; step < 600; step++ {
		i := rng.Intn(len(inputs))
		if rng.Intn(3) == 0 {
			got := m.SourceDistributions(inputs[i])
			if !sameBits(got, wantProbs[i]) {
				t.Fatalf("step %d: distributions of input %d differ from the head over extractFrame", step, i)
			}
			held = append(held, handle{got, i, true})
		} else {
			got := m.FeatureFrame(inputs[i])
			if !sameBits(got, wantFeats[i]) {
				t.Fatalf("step %d: features of input %d differ from extractFrame", step, i)
			}
			held = append(held, handle{got, i, false})
		}
		if n := m.CachedSplits(); n > m.featBound {
			t.Fatalf("step %d: %d splits resident, bound is %d", step, n, m.featBound)
		}
	}
	if Extractions()-before <= int64(len(inputs)) {
		t.Fatal("the access sequence never evicted: the property was not exercised")
	}
	for _, h := range held {
		want := wantFeats[h.input]
		if h.probs {
			want = wantProbs[h.input]
		}
		if !sameBits(h.frame, want) {
			t.Fatalf("a handle on input %d changed after later evictions", h.input)
		}
	}
}
