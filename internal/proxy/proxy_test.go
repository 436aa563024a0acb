package proxy

import (
	"math"
	"testing"
	"testing/quick"

	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/synth"
)

// fixture builds one in-domain and one foreign model plus a target dataset.
func fixture(t *testing.T) (aligned, foreign *modelhub.Model, d *datahub.Dataset) {
	t.Helper()
	w := synth.NewWorld(42)
	var err error
	aligned, err = modelhub.Materialize(w, modelhub.Spec{
		Name: "proxy/aligned", Task: datahub.TaskNLP, Arch: "bert", Params: 110,
		Domains:    map[string]float64{datahub.DomainSentiment: 1},
		Capability: 0.6, SourceClasses: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err = modelhub.Materialize(w, modelhub.Spec{
		Name: "proxy/foreign", Task: datahub.TaskNLP, Arch: "bert", Params: 110,
		Domains:    map[string]float64{datahub.DomainMultilingual: 1},
		Capability: 0.6, SourceClasses: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err = datahub.Generate(w, datahub.Spec{
		Name: "proxy/ds", Task: datahub.TaskNLP,
		Domains: map[string]float64{datahub.DomainSentiment: 1},
		Classes: 3, Separability: 2, Noise: 1.8,
	}, datahub.Sizes{Train: 200, Val: 50, Test: 50})
	if err != nil {
		t.Fatal(err)
	}
	return aligned, foreign, d
}

func TestLEEPNonPositive(t *testing.T) {
	aligned, _, d := fixture(t)
	s, err := LEEP{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	if s > 1e-9 || math.IsNaN(s) {
		t.Fatalf("LEEP = %v, must be a log-likelihood <= 0", s)
	}
}

func TestLEEPPrefersAligned(t *testing.T) {
	aligned, foreign, d := fixture(t)
	sa, err := LEEP{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := LEEP{}.Score(foreign, d)
	if err != nil {
		t.Fatal(err)
	}
	if sa <= sf {
		t.Fatalf("aligned LEEP %v not above foreign %v", sa, sf)
	}
}

func TestCalibratedLEEPPrefersAligned(t *testing.T) {
	aligned, foreign, d := fixture(t)
	sa, err := CalibratedLEEP{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := CalibratedLEEP{}.Score(foreign, d)
	if err != nil {
		t.Fatal(err)
	}
	if sa <= sf {
		t.Fatalf("aligned calibrated LEEP %v not above foreign %v", sa, sf)
	}
	// The aligned model's predictions carry label information, so its
	// calibrated score must be clearly positive.
	if sa <= 0 {
		t.Fatalf("aligned calibrated LEEP %v should be positive", sa)
	}
}

func TestCalibratedLEEPDeterministic(t *testing.T) {
	aligned, _, d := fixture(t)
	a, err := CalibratedLEEP{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CalibratedLEEP{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("calibrated LEEP not deterministic")
	}
}

func TestNCEPrefersAligned(t *testing.T) {
	aligned, foreign, d := fixture(t)
	sa, err := NCE{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NCE{}.Score(foreign, d)
	if err != nil {
		t.Fatal(err)
	}
	if sa <= sf {
		t.Fatalf("aligned NCE %v not above foreign %v", sa, sf)
	}
}

func TestKNNRangeAndOrdering(t *testing.T) {
	aligned, foreign, d := fixture(t)
	sa, err := KNN{}.Score(aligned, d)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := KNN{}.Score(foreign, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{sa, sf} {
		if s < 0 || s > 1 {
			t.Fatalf("kNN accuracy %v outside [0,1]", s)
		}
	}
	if sa <= sf {
		t.Fatalf("aligned kNN %v not above foreign %v", sa, sf)
	}
}

func TestKNNName(t *testing.T) {
	if (KNN{}).Name() != "knn5" {
		t.Fatalf("kNN name %q", KNN{}.Name())
	}
}

func TestTaskMismatchRejected(t *testing.T) {
	aligned, _, _ := fixture(t)
	w := synth.NewWorld(42)
	cvDS, err := datahub.Generate(w, datahub.CVTargets()[0], datahub.Sizes{Train: 20, Val: 10, Test: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scorer{LEEP{}, CalibratedLEEP{}, NCE{}, KNN{}} {
		if _, err := s.Score(aligned, cvDS); err == nil {
			t.Fatalf("%s accepted task mismatch", s.Name())
		}
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{-2, 0, 2})
	if out[0] != 0 || out[1] != 0.5 || out[2] != 1 {
		t.Fatalf("normalize = %v", out)
	}
	for _, v := range Normalize([]float64{3, 3, 3}) {
		if v != 0.5 {
			t.Fatal("constant scores should map to 0.5")
		}
	}
	if len(Normalize(nil)) != 0 {
		t.Fatal("nil input")
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(raw [9]float64) bool {
		in := make([]float64, len(raw))
		for i, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			in[i] = math.Mod(x, 100)
		}
		out := Normalize(in)
		for _, v := range out {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnsemble(t *testing.T) {
	aligned, foreign, d := fixture(t)
	e := Ensemble{Scorers: []Scorer{CalibratedLEEP{}, KNN{}}}
	var scores [2]float64
	for i, m := range []*modelhub.Model{aligned, foreign} {
		s, err := e.Score(m, d)
		if err != nil {
			t.Fatal(err)
		}
		scores[i] = s
	}
	if scores[0] <= scores[1] {
		t.Fatalf("ensemble should prefer aligned: %v", scores)
	}
	if _, err := (Ensemble{}).Score(aligned, d); err == nil {
		t.Fatal("empty ensemble Score accepted")
	}
}

func TestScorerNames(t *testing.T) {
	names := map[string]bool{}
	for _, s := range []Scorer{LEEP{}, CalibratedLEEP{}, NCE{}, KNN{}, Ensemble{}} {
		n := s.Name()
		if n == "" || names[n] {
			t.Fatalf("bad or duplicate scorer name %q", n)
		}
		names[n] = true
	}
}

// leepCase is one random input of the sweep: source-head rows theta and
// three label vectors over the same examples.
type leepCase struct {
	theta            *numeric.Frame
	targetK, sourceK int
	labels           [3][]int
}

// randomLEEPCase draws an n-example case. Besides softmax-like rows it
// plants what the catalog rarely or never produces: source columns no row
// puts mass on (a zero marginal), all-zero rows and rows of subnormal mass,
// whose likelihood falls under the 1e-300 clamp.
func randomLEEPCase(rng *numeric.RNG, n, targetK, sourceK int) leepCase {
	c := leepCase{theta: numeric.NewFrame(n, sourceK), targetK: targetK, sourceK: sourceK}
	dead := make([]bool, sourceK)
	for z := range dead {
		dead[z] = rng.Intn(4) == 0
	}
	for i := 0; i < n; i++ {
		row := c.theta.Row(i)
		switch rng.Intn(8) {
		case 0: // all zero
		case 1: // subnormal mass on one live column
			if z := rng.Intn(sourceK); !dead[z] {
				row[z] = 1e-310 * (1 + rng.Float64())
			}
		default:
			var sum float64
			for z := range row {
				if !dead[z] {
					row[z] = math.Exp(3 * rng.Norm())
					sum += row[z]
				}
			}
			for z := range row {
				if sum > 0 {
					row[z] /= sum
				}
			}
		}
	}
	for k := range c.labels {
		c.labels[k] = make([]int, n)
		for i := range c.labels[k] {
			c.labels[k][i] = rng.Intn(targetK)
		}
	}
	return c
}

// checkSweep requires each pass of the sweep to equal referenceLEEP over
// its label vector bit for bit, and plain LEEP's sweep (the real labels
// three times) to equal it over the real labels. It reports whether the
// case has a source column no row puts mass on, so every pass reaches the
// zero-marginal branch, and a row whose total mass is under 1e-300, whose
// likelihood every pass clamps (a conditional is at most 1).
func checkSweep(t *testing.T, c leepCase) (zeroMarginal, clamped bool) {
	t.Helper()
	three := leepSweep(c.theta, c.targetK, c.sourceK, c.labels)
	for k, ys := range c.labels {
		if want := referenceLEEP(c.theta, ys, c.targetK, c.sourceK); math.Float64bits(three[k]) != math.Float64bits(want) {
			t.Fatalf("n=%d targetK=%d sourceK=%d: sweep pass %d = %x, per-pass LEEP %x",
				c.theta.N, c.targetK, c.sourceK, k, three[k], want)
		}
	}
	ys := c.labels[0]
	want := referenceLEEP(c.theta, ys, c.targetK, c.sourceK)
	if plain := leepSweep(c.theta, c.targetK, c.sourceK, [3][]int{ys, ys, ys})[0]; math.Float64bits(plain) != math.Float64bits(want) {
		t.Fatalf("n=%d targetK=%d sourceK=%d: plain LEEP sweep = %x, per-pass LEEP %x",
			c.theta.N, c.targetK, c.sourceK, plain, want)
	}
	nf := float64(c.theta.N)
	live := make([]bool, c.sourceK)
	for i := 0; i < c.theta.N; i++ {
		var mass float64
		for z, th := range c.theta.Row(i) {
			live[z] = live[z] || th/nf != 0
			mass += th
		}
		clamped = clamped || mass < 1e-300
	}
	for _, l := range live {
		zeroMarginal = zeroMarginal || !l
	}
	return zeroMarginal, clamped
}

// TestLEEPSweepMatchesPerPassLEEP: over seeded random shapes (n 1-200,
// targetK 2-20, sourceK 2-50), the sweep's three passes and plain LEEP's
// sweep equal independent per-pass LEEP calls bit for bit, with the
// zero-marginal branch and the likelihood clamp both reached.
func TestLEEPSweepMatchesPerPassLEEP(t *testing.T) {
	rng := numeric.NewRNG(20)
	var zeroMarginals, clamps int
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(maxExamples)
		targetK := 2 + rng.Intn(19)
		sourceK := 2 + rng.Intn(49)
		zero, clamped := checkSweep(t, randomLEEPCase(rng, n, targetK, sourceK))
		if zero {
			zeroMarginals++
		}
		if clamped {
			clamps++
		}
	}
	if zeroMarginals == 0 || clamps == 0 {
		t.Fatalf("cases reached the zero marginal %d times and the clamp %d times, want both", zeroMarginals, clamps)
	}
}

// FuzzLEEPSweep lets the fuzzer pick the seed and the shape of the sweep's
// random case, folded into the property test's ranges.
func FuzzLEEPSweep(f *testing.F) {
	f.Add(uint64(0), uint8(1), uint8(2), uint8(2))
	f.Add(uint64(7), uint8(199), uint8(18), uint8(48))
	f.Add(uint64(42), uint8(60), uint8(3), uint8(30))
	f.Fuzz(func(t *testing.T, seed uint64, n, targetK, sourceK uint8) {
		c := randomLEEPCase(numeric.NewRNG(seed), 1+int(n)%maxExamples, 2+int(targetK)%19, 2+int(sourceK)%49)
		checkSweep(t, c)
	})
}
