package modelhub

import (
	"math"
	"strings"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/numeric"
	"twophase/internal/synth"
)

func testModelSpec(name string, domains map[string]float64, capability float64) Spec {
	return Spec{
		Name: name, Task: datahub.TaskNLP, Arch: "bert", Params: 110,
		Domains: domains, Capability: capability, SourceClasses: 4,
	}
}

func TestMaterializeValidation(t *testing.T) {
	w := synth.NewWorld(42)
	cases := []Spec{
		{},                            // empty name
		testModelSpec("a", nil, -0.1), // capability < 0
		testModelSpec("b", nil, 1.1),  // capability > 1
		{Name: "c", Task: datahub.TaskNLP, Capability: 0.5, SourceClasses: 1}, // 1 source class
		{Name: "d", Task: "audio", Capability: 0.5, SourceClasses: 2},         // unknown task family
	}
	for i, spec := range cases {
		if _, err := Materialize(w, spec); err == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	spec := testModelSpec("det", map[string]float64{datahub.DomainNLI: 1}, 0.6)
	a, err := Materialize(synth.NewWorld(42), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Materialize(synth.NewWorld(42), spec)
	if err != nil {
		t.Fatal(err)
	}
	x := numeric.NewNamedRNG(1, "probe").NormVec(synth.InputDim)
	fa, fb := features(a, x), features(b, x)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("same world+spec produced different models")
		}
	}
}

func TestFeaturesBounded(t *testing.T) {
	w := synth.NewWorld(42)
	m, err := Materialize(w, testModelSpec("bounded", map[string]float64{datahub.DomainNLI: 1}, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	rng := numeric.NewNamedRNG(7, "inputs")
	for trial := 0; trial < 20; trial++ {
		x := rng.NormVec(synth.InputDim)
		numeric.Scale(x, 5)
		f := features(m, x)
		if len(f) != FeatureDim {
			t.Fatalf("feature dim %d", len(f))
		}
		for _, v := range f {
			if v < -1 || v > 1 || math.IsNaN(v) {
				t.Fatalf("feature %v outside tanh range", v)
			}
		}
	}
}

// features is the per-vector extractor phi(x) = tanh(gain*Wp(Px) +
// leak*Wg(x) + b): the reference extractFrame is pinned to bit for bit.
func features(m *Model, x []float64) []float64 {
	proj := make([]float64, PrefRank)
	m.prefDirs.MulVec(x, proj)

	aligned := make([]float64, FeatureDim)
	m.wPref.MulVec(proj, aligned)
	generic := make([]float64, FeatureDim)
	m.wGeneric.MulVec(x, generic)

	out := make([]float64, FeatureDim)
	for i := range out {
		out[i] = tanh(float64(m.gain*aligned[i]) + float64(m.leak*generic[i]) + m.bias[i])
	}
	return out
}

// sourceProbs is the per-example source head: the reference the frame
// pass (SourceProbsFrame) is pinned to.
func sourceProbs(m *Model, features []float64) []float64 {
	out := make([]float64, m.SourceClasses)
	m.head.MulVec(features, out)
	numeric.Softmax(out, out)
	return out
}

// featuresPerExample extracts features example by example through the
// single-vector path — the historical reference the batched frame kernels
// are compared against bit for bit.
func featuresPerExample(m *Model, xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = features(m, x)
	}
	return out
}

func TestSourceProbsDistribution(t *testing.T) {
	w := synth.NewWorld(42)
	m, err := Materialize(w, testModelSpec("probs", map[string]float64{datahub.DomainNLI: 1}, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	x := numeric.NewNamedRNG(3, "x").NormVec(synth.InputDim)
	p := sourceProbs(m, features(m, x))
	if len(p) != m.SourceClasses {
		t.Fatalf("probs len %d", len(p))
	}
	var sum float64
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative prob %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum %v", sum)
	}
}

// TestAlignmentDrivesSeparability is the central property of the synthetic
// substrate: a model whose domains match a dataset's separates its classes
// in feature space better than an equally capable model from a foreign
// domain — the causal mechanism behind every experiment.
func TestAlignmentDrivesSeparability(t *testing.T) {
	w := synth.NewWorld(42)
	d, err := datahub.Generate(w, datahub.Spec{
		Name: "align/ds", Task: datahub.TaskNLP,
		Domains: map[string]float64{datahub.DomainNLI: 1},
		Classes: 2, Separability: 2, Noise: 2,
	}, datahub.Sizes{Train: 300, Val: 10, Test: 10})
	if err != nil {
		t.Fatal(err)
	}
	aligned, err := Materialize(w, testModelSpec("align/in-domain", map[string]float64{datahub.DomainNLI: 1}, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := Materialize(w, testModelSpec("align/foreign", map[string]float64{datahub.DomainFinance: 1}, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	if sa, sf := fisherScore(aligned, d), fisherScore(foreign, d); sa <= sf*1.3 {
		t.Fatalf("aligned separability %v not clearly above foreign %v", sa, sf)
	}
}

// fisherScore is the ratio of between-class to within-class scatter of the
// model's features on the dataset's training split.
func fisherScore(m *Model, d *datahub.Dataset) float64 {
	feats := m.FeatureFrame(d.Train.X).Rows2D()
	mean := make([]float64, FeatureDim)
	classMean := map[int][]float64{}
	classN := map[int]int{}
	for i, f := range feats {
		numeric.AddScaled(mean, 1, f)
		y := d.Train.Y[i]
		if classMean[y] == nil {
			classMean[y] = make([]float64, FeatureDim)
		}
		numeric.AddScaled(classMean[y], 1, f)
		classN[y]++
	}
	numeric.Scale(mean, 1/float64(len(feats)))
	var between float64
	for y, cm := range classMean {
		numeric.Scale(cm, 1/float64(classN[y]))
		between += float64(float64(classN[y]) * sq(numeric.EuclideanDistance(cm, mean)))
	}
	var within float64
	for i, f := range feats {
		within += sq(numeric.EuclideanDistance(f, classMean[d.Train.Y[i]]))
	}
	if within == 0 {
		return math.Inf(1)
	}
	return between / within
}

func sq(x float64) float64 { return float64(x * x) }

// TestCapabilityHelpsInDomain: higher capability should raise in-domain
// feature quality (via the uncorrupted preferred subspace).
func TestCapabilityHelpsInDomain(t *testing.T) {
	w := synth.NewWorld(42)
	d, err := datahub.Generate(w, datahub.Spec{
		Name: "cap/ds", Task: datahub.TaskNLP,
		Domains: map[string]float64{datahub.DomainTopic: 1},
		Classes: 2, Separability: 2, Noise: 2,
	}, datahub.Sizes{Train: 300, Val: 10, Test: 10})
	if err != nil {
		t.Fatal(err)
	}
	weak, err := Materialize(w, testModelSpec("cap/weak", map[string]float64{datahub.DomainTopic: 1}, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	strong, err := Materialize(w, testModelSpec("cap/strong", map[string]float64{datahub.DomainTopic: 1}, 0.95))
	if err != nil {
		t.Fatal(err)
	}
	if sw, ss := fisherScore(weak, d), fisherScore(strong, d); ss <= sw {
		t.Fatalf("strong capability %v not above weak %v", ss, sw)
	}
}

func TestCardContents(t *testing.T) {
	spec := testModelSpec("org/my-model", map[string]float64{datahub.DomainNLI: 1}, 0.5)
	spec.Upstream = []string{"mnli"}
	card := spec.Card()
	for _, want := range []string{"org/my-model", "bert", "mnli"} {
		if !strings.Contains(card, want) {
			t.Fatalf("card missing %q:\n%s", want, card)
		}
	}
}
