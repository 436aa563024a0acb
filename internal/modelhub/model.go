// Package modelhub defines the model side of the synthetic world: the
// registry of pre-trained models (the paper's 40 NLP + 30 CV HuggingFace
// model names with their architecture/upstream metadata) and the simulated
// pre-trained model itself — a frozen nonlinear feature extractor plus a
// fixed source-label head, which together stand in for a transformer
// checkpoint.
//
// Both are frozen, so what they compute for a dataset split never changes.
// A Model therefore caches, per split, the extracted feature frame
// (FeatureFrame) and — lazily, in the same entry — the source head's
// distributions over it (SourceDistributions): requests share them instead
// of re-running inference, and an evicted split takes both with it.
//
// The cache holds as many splits as the model's task family has target
// splits (featureCacheBound), so the catalog a backend serves stays
// resident however requests rotate over it; the LRU only decides what goes
// when traffic reaches past the catalog (benchmark splits during a build,
// cmd/experiments sweeping dataset sizes). At datahub.DefaultSizes a fully
// resident catalog is 4 targets x 760 rows x FeatureDim float64s = 1.17 MB
// of frames per model, plus distributions over the train splits only (the
// one split proxy scoring reads): 4 x 240 rows x SourceClasses float64s,
// 384 KB at the registry's widest head (50 classes) — 1.55 MB worst case,
// reached only by a model every target has asked all three splits of (a
// candidate run reads train and val; the test split is extracted for a run
// that is asked for test accuracy, online the winner). ReleaseFeatures
// empties the cache; the offline build calls it once the benchmark splits
// it trained on are no longer needed.
package modelhub

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"twophase/internal/datahub"
	"twophase/internal/numeric"
	"twophase/internal/synth"
)

const (
	// FeatureDim is the width of the frozen feature extractor's output,
	// the space in which target heads are trained.
	FeatureDim = 48
	// PrefRank is the dimensionality of the subspace a model attends to
	// preferentially (its "knowledge"). Inputs outside this span only
	// reach the features through the weak generic pathway.
	PrefRank = 8
)

// Spec is the static metadata of a pre-trained model.
type Spec struct {
	// Name is the HuggingFace identifier from the paper's Table VIII.
	Name string
	// Task is "nlp" or "cv".
	Task string
	// Arch is the architecture family (bert, roberta, vit, beit, ...).
	Arch string
	// Params is the approximate parameter count in millions (for cards).
	Params int
	// Domains is the upstream-training domain mixture inferred from the
	// model's name and card, the latent driver of transferability.
	Domains map[string]float64
	// Capability in [0,1] captures generic feature quality: it raises
	// both the aligned gain and the generic pathway, so strong models
	// transfer broadly while weak ones only work near their domains.
	Capability float64
	// SourceClasses is the size of the upstream label space, over which
	// the source head predicts (used by LEEP).
	SourceClasses int
	// Upstream names the upstream/fine-tuning datasets (for cards).
	Upstream []string
}

// Model is a materialized simulated pre-trained model. Its extractor and
// source head are frozen; only target-task heads are trained online.
type Model struct {
	Spec

	prefDirs *numeric.Matrix // PrefRank x InputDim: the attended subspace
	wPref    *numeric.Matrix // FeatureDim x PrefRank: aligned pathway
	wGeneric *numeric.Matrix // FeatureDim x InputDim: generic pathway
	bias     []float64       // FeatureDim
	head     *numeric.Matrix // SourceClasses x FeatureDim: frozen source head

	gain, leak float64

	// Feature-extraction cache: input frame identity -> extracted
	// features (and, lazily, the source head's distributions over them).
	// The extractor and the head are frozen, so a given input frame always
	// maps to the same features and the same distributions; every proxy
	// score, selection strategy, candidate run and round shares one
	// read-only extraction per (model, split) instead of recomputing it
	// per request. Keys are the *numeric.Frame pointers a Dataset holds
	// for its splits, which are stable for the dataset's lifetime.
	featMu    sync.Mutex
	featCache map[*numeric.Frame]*featEntry
	featTick  uint64
	featBound int // featureCacheBound(Task), fixed by Materialize
}

// featEntry is one cached extraction with its LRU recency stamp. The
// frame materializes through once, outside the cache mutex, so a cache
// hit on one split never waits behind another split's in-flight
// extraction. The source head's softmax rows over the frame materialize
// the same way the first time a proxy score asks for them, and leave
// with the entry: one cache, one eviction policy.
type featEntry struct {
	once  sync.Once
	frame *numeric.Frame
	tick  uint64

	probsOnce sync.Once
	probs     *numeric.Frame
}

// featureCacheBound is how many split extractions a model of the task
// family retains: one per split of every target in the family's catalog,
// the working set of online traffic. A smaller bound turns requests that
// rotate over the catalog into LRU's worst case — every lookup a miss, the
// extractor re-run per request; a larger one only keeps frames no request
// asks for again. It is a function of the catalog alone: there is nothing
// to tune, so there is no knob. The package comment has the resident bytes.
func featureCacheBound(task string) (int, error) {
	targets, err := datahub.TaskTargets(task)
	if err != nil {
		return 0, err
	}
	return datahub.SplitsPerDataset * len(targets), nil
}

// extractions counts full-split feature-extraction passes (cache misses)
// in this process, mirroring cluster.Passes: tests use it to prove that a
// framework build extracts each (model, split) exactly once no matter how
// many strategies and rounds consume it.
var extractions atomic.Int64

// Extractions reports how many split feature-extraction passes this
// process has executed so far.
func Extractions() int64 { return extractions.Load() }

// sourceHeadPasses counts full-split source-head passes (the head applied
// to a cached extraction) the same way: tests use it to prove that
// repeated and concurrent proxy scores of one (model, split) share one.
var sourceHeadPasses atomic.Int64

// SourceHeadPasses reports how many split source-head passes this process
// has executed so far.
func SourceHeadPasses() int64 { return sourceHeadPasses.Load() }

// Materialize builds the frozen weights of a model inside the world.
// All randomness derives from (world seed, model name), so repeated calls
// return an identical model.
func Materialize(w *synth.World, spec Spec) (*Model, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("modelhub: model spec has empty name")
	}
	if spec.Capability < 0 || spec.Capability > 1 {
		return nil, fmt.Errorf("modelhub: model %q capability %v outside [0,1]", spec.Name, spec.Capability)
	}
	if spec.SourceClasses < 2 {
		return nil, fmt.Errorf("modelhub: model %q needs >= 2 source classes, got %d", spec.Name, spec.SourceClasses)
	}
	bound, err := featureCacheBound(spec.Task)
	if err != nil {
		return nil, fmt.Errorf("modelhub: model %q: %w", spec.Name, err)
	}
	rng := numeric.NewNamedRNG(w.Seed, "model", spec.Name)
	mix := synth.WithCore(spec.Domains, spec.Task, 0.30)

	m := &Model{Spec: spec, featBound: bound}
	m.prefDirs = w.MixtureDirections(mix, PrefRank, rng)
	// Low-capability models attend to a corrupted version of their domain
	// subspace: even on in-domain tasks their features capture less of the
	// discriminative structure. q is the retained alignment fraction.
	q := 0.45 + float64(0.55*spec.Capability)
	for i := 0; i < m.prefDirs.Rows; i++ {
		row := m.prefDirs.Row(i)
		noise := rng.NormVec(synth.InputDim)
		numeric.Normalize(noise)
		for j := range row {
			row[j] = float64(q*row[j]) + float64((1-q)*noise[j])
		}
		numeric.Normalize(row)
	}
	m.wPref = numeric.RandomMatrix(rng, FeatureDim, PrefRank, 1.0/2.5)
	m.wGeneric = numeric.RandomMatrix(rng, FeatureDim, synth.InputDim, 1.0/5.0)
	m.bias = make([]float64, FeatureDim)
	for i := range m.bias {
		m.bias[i] = rng.Norm() * 0.1
	}
	m.gain = 0.9 + float64(0.9*spec.Capability)
	m.leak = 0.10 + float64(0.35*spec.Capability)

	// Source head: template matching against the model's upstream task.
	// A real checkpoint's classification head was trained on its upstream
	// dataset, so its predictions are informative about where an input
	// lies in the model's domain span — the property LEEP exploits. We
	// synthesize upstream class centers inside the model's (corrupted)
	// preferred subspace and use their feature embeddings as head rows: one
	// frame of centers, extracted in one pass and scaled by headTemp.
	const upstreamSep = 2.2
	const headTemp = 1.5
	centers := numeric.NewFrame(spec.SourceClasses, synth.InputDim)
	for z := 0; z < centers.N; z++ {
		for j := 0; j < PrefRank; j++ {
			numeric.AddScaled(centers.Row(z), rng.Norm()*upstreamSep, m.prefDirs.Row(j))
		}
	}
	feats := m.extractFrame(centers)
	for i, f := range feats.Data {
		feats.Data[i] = headTemp * f
	}
	m.head = &numeric.Matrix{Rows: feats.N, Cols: feats.D, Data: feats.Data}
	return m, nil
}

// FeatureFrame extracts features for every row of x through the batched
// frame kernels, caching the result by input-frame identity. The returned
// frame is shared and read-only: callers must not write through its rows.
func (m *Model) FeatureFrame(x *numeric.Frame) *numeric.Frame {
	return m.entry(x).frame
}

// SourceDistributions returns the frozen source head's softmax
// distribution for every row of x: row i is the softmax of the head
// applied to the features of x.Row(i), bit for bit. The result is
// computed once from the cached extraction of x, shared by every later
// caller while that extraction stays cached, and read-only. Rows are independent, so a
// prefix view (Slice) equals the head applied to the same prefix of the
// features.
func (m *Model) SourceDistributions(x *numeric.Frame) *numeric.Frame {
	e := m.entry(x)
	e.probsOnce.Do(func() {
		sourceHeadPasses.Add(1)
		e.probs = numeric.NewFrame(e.frame.N, m.SourceClasses)
		m.SourceProbsFrame(e.frame, e.probs)
	})
	return e.probs
}

// entry returns x's cache entry with its extraction materialized,
// inserting it (and evicting the least recently used entry past the
// model's bound) on a miss.
func (m *Model) entry(x *numeric.Frame) *featEntry {
	m.featMu.Lock()
	m.featTick++
	e, ok := m.featCache[x]
	if ok {
		e.tick = m.featTick
	} else {
		if m.featCache == nil {
			m.featCache = make(map[*numeric.Frame]*featEntry, m.featBound)
		}
		if len(m.featCache) >= m.featBound {
			var oldest *numeric.Frame
			var oldestTick uint64
			for k, prev := range m.featCache {
				if oldest == nil || prev.tick < oldestTick {
					oldest, oldestTick = k, prev.tick
				}
			}
			delete(m.featCache, oldest) // holders of the evicted frame keep it alive
		}
		e = &featEntry{tick: m.featTick}
		m.featCache[x] = e
	}
	m.featMu.Unlock()
	// Extraction runs outside the mutex: hits on other splits proceed
	// while this one materializes, and concurrent requesters of the same
	// split coalesce on the entry's once.
	e.once.Do(func() {
		extractions.Add(1)
		e.frame = m.extractFrame(x)
	})
	return e
}

// ReleaseFeatures drops every cached extraction (and the distributions
// held with it). Frames already handed out stay valid for their holders;
// the next request for a split extracts it again. The offline build calls
// this once its benchmark-split training is done: no online request ever
// asks for a benchmark split, so those frames would only sit in the heap.
func (m *Model) ReleaseFeatures() {
	m.featMu.Lock()
	m.featCache = nil
	m.featMu.Unlock()
}

// CachedSplits reports how many split extractions the model currently
// holds.
func (m *Model) CachedSplits() int {
	m.featMu.Lock()
	defer m.featMu.Unlock()
	return len(m.featCache)
}

// extractFrame is the extractor: phi(X) = tanh(gain*Wp(P·X) + leak*Wg(X)
// + b), computed with contiguous matrix-matrix kernels. Each output
// element follows exactly the accumulation order of a per-vector MulVec
// pass over its row (features in the package tests), so every row is
// bit-identical to extracting that input alone.
func (m *Model) extractFrame(x *numeric.Frame) *numeric.Frame {
	n := x.N
	proj := numeric.NewFrame(n, PrefRank)
	m.prefDirs.MulFrame(x, proj)
	out := numeric.NewFrame(n, FeatureDim) // aligned pathway, fused in place below
	m.wPref.MulFrame(proj, out)
	generic := numeric.NewFrame(n, FeatureDim)
	m.wGeneric.MulFrame(x, generic)
	for i := 0; i < n; i++ {
		a, g := out.Row(i), generic.Row(i)
		for k, b := range m.bias {
			a[k] = tanh(float64(m.gain*a[k]) + float64(m.leak*g[k]) + b)
		}
	}
	return out
}

// SourceProbsFrame runs the frozen source head — the model's softmax
// distribution over its upstream label space — over every feature row at
// once: out.Row(i) = softmax(head · feats.Row(i)). out must be feats.N x
// SourceClasses.
func (m *Model) SourceProbsFrame(feats, out *numeric.Frame) {
	m.head.MulFrame(feats, out)
	numeric.SoftmaxRows(out)
}

// Card renders a synthetic model card: the text stand-in for the
// HuggingFace card used by the Table I text-similarity baseline.
func (m *Model) Card() string { return m.Spec.Card() }

// Card renders the model card from spec metadata alone. Like a real
// HuggingFace card it mixes the informative parts (name, architecture,
// upstream datasets) with uploader-specific boilerplate — licenses,
// hyperparameter tables, disclaimers — whose wording varies per model.
// Crucially, the latent domain mixture is NOT written out: cards only
// carry the indirect evidence (names) that the Table I text baseline has
// access to in reality.
func (s Spec) Card() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n\n", s.Name)
	fmt.Fprintf(&b, "Architecture: %s with approximately %dM parameters for %s tasks.\n", s.Arch, s.Params, s.Task)
	if len(s.Upstream) > 0 {
		fmt.Fprintf(&b, "This model was trained or fine-tuned on: %s.\n", strings.Join(s.Upstream, ", "))
	} else {
		b.WriteString("This is a general-purpose pre-trained checkpoint.\n")
	}
	fmt.Fprintf(&b, "Label space size: %d.\n", s.SourceClasses)

	// Deterministic per-model boilerplate: uploaders describe training
	// setups, licenses and caveats in their own words.
	rng := numeric.NewNamedRNG(0x6361726473, "card", s.Name) // "cards"
	licenses := []string{
		"Released under the apache 2.0 license.",
		"Licensed under mit terms, no warranty provided.",
		"Distributed under cc by sa 4.0, cite when reusing.",
		"License unspecified, contact the uploader before commercial use.",
	}
	setups := []string{
		"Trained with adamw optimizer, linear warmup schedule and gradient clipping.",
		"Fine tuning used batch size 32, sequence length 128 and early stopping on dev loss.",
		"Hyperparameters follow the original publication with minor learning rate adjustments.",
		"Training ran on a single gpu for several hours with mixed precision enabled.",
		"We used the default trainer settings from the transformers library.",
	}
	caveats := []string{
		"The model may reflect biases present in its training corpus.",
		"Evaluation numbers are reported on the hidden test split.",
		"Results can vary with random seed and tokenization choices.",
		"This checkpoint is provided for research purposes only.",
		"Further details and training logs are available in the repository.",
	}
	b.WriteString(licenses[rng.Intn(len(licenses))] + "\n")
	b.WriteString(setups[rng.Intn(len(setups))] + "\n")
	b.WriteString(caveats[rng.Intn(len(caveats))] + "\n")
	b.WriteString(caveats[rng.Intn(len(caveats))] + "\n")
	return b.String()
}

func tanh(x float64) float64 { return math.Tanh(x) }
