package artifact

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/perfmatrix"
	"twophase/internal/recall"
	"twophase/internal/trainer"
)

// testMatrix builds a small deterministic matrix with awkward float
// values (denormals, negatives, values that lose digits in decimal).
func testMatrix(rng *rand.Rand, nM, nD, ep int) *perfmatrix.Matrix {
	m := &perfmatrix.Matrix{
		Task:    "nlp",
		Epochs:  ep,
		Seed:    42,
		HP:      trainer.Hyperparams{LearningRate: 0.1, BatchSize: 8, Epochs: ep, L2: 1e-4},
		Sizes:   datahub.Sizes{Train: 60, Val: 40, Test: 48},
		Entries: map[string]*perfmatrix.Entry{},
	}
	for i := 0; i < nM; i++ {
		m.Models = append(m.Models, "model_"+string(rune('a'+i)))
	}
	for j := 0; j < nD; j++ {
		m.Datasets = append(m.Datasets, "data/"+string(rune('a'+j)))
	}
	for _, model := range m.Models {
		for _, ds := range m.Datasets {
			e := &perfmatrix.Entry{Model: model, Dataset: ds}
			for k := 0; k < ep; k++ {
				e.Val = append(e.Val, rng.Float64()/3)
				e.Test = append(e.Test, rng.NormFloat64()*1e-300)
			}
			m.Entries[model+"\x00"+ds] = e
		}
	}
	return m
}

// TestMatrixRoundTrip is the property test against the JSON path:
// Decode ∘ Encode is the identity, bit for bit, and reproduces exactly the
// matrix a JSON round trip reproduces, across seeded random shapes —
// 0×N, N×0, 1×1 and zero-epoch curves (the only curve lengths the encoder
// accepts are the rectangular ones) — and awkward values.
func TestMatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{0, 3, 2}, {3, 0, 2}, {0, 0, 0}, {1, 1, 1}, {1, 1, 0}}
	for trial := 0; trial < 40; trial++ {
		shape := [3]int{rng.Intn(6), rng.Intn(6), rng.Intn(6)}
		if trial < len(shapes) {
			shape = shapes[trial]
		}
		m := testMatrix(rng, shape[0], shape[1], shape[2])
		data, err := EncodeMatrix(m)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		got, err := DecodeMatrix(data)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("trial %d (shape %v): decode(encode(m)) != m:\n%+v\nvs\n%+v", trial, shape, got, m)
		}
		jdata, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON perfmatrix.Matrix
		if err := json.Unmarshal(jdata, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, &viaJSON) {
			t.Fatalf("trial %d: binary and JSON round trips disagree:\n%+v\nvs\n%+v", trial, got, &viaJSON)
		}
		for _, model := range m.Models {
			for _, ds := range m.Datasets {
				want, _ := m.Entry(model, ds)
				have, err := got.Entry(model, ds)
				if err != nil {
					t.Fatal(err)
				}
				for k := range want.Val {
					if math.Float64bits(want.Val[k]) != math.Float64bits(have.Val[k]) ||
						math.Float64bits(want.Test[k]) != math.Float64bits(have.Test[k]) {
						t.Fatalf("trial %d: %s/%s epoch %d not bit-identical", trial, model, ds, k)
					}
				}
			}
		}
	}
}

// testRecall builds a seeded random clustering artifact over n models:
// assignments span negatives and the int extremes.
func testRecall(rng *rand.Rand, n int) *recall.Artifact {
	a := &recall.Artifact{
		Task: "cv", Seed: rng.Uint64(), SimilarityK: rng.Intn(9), Threshold: rng.NormFloat64(),
		Scorer: "calibrated-leep", Clusters: rng.Intn(n + 1),
	}
	for i := 0; i < n; i++ {
		a.Models = append(a.Models, "m"+string(rune('a'+i)))
		a.Assign = append(a.Assign, []int{rng.Intn(n), -1, math.MaxInt, math.MinInt}[rng.Intn(4)])
	}
	return a
}

// TestRecallRoundTrip: Decode ∘ Encode is the identity on seeded random
// recall artifacts, the empty one (no models, nil assignment) included.
func TestRecallRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		a := testRecall(rng, trial%8)
		data, err := EncodeRecall(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRecall(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("trial %d: recall round trip drifted:\n%+v\nvs\n%+v", trial, got, a)
		}
	}
}

// TestFingerprintIsProvenance pins the fingerprint contract: same
// provenance, same fingerprint — across separate encodes — and changed
// provenance changes it.
func TestFingerprintIsProvenance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := testMatrix(rng, 3, 2, 4)
	a, _ := EncodeMatrix(m)
	b, _ := EncodeMatrix(m)
	ha, err := Verify(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := Verify(b)
	if ha.Fingerprint != hb.Fingerprint {
		t.Fatal("same matrix encoded twice changed fingerprint")
	}
	m2 := testMatrix(rng, 3, 2, 4)
	m2.Seed = 43
	c, _ := EncodeMatrix(m2)
	hc, _ := Verify(c)
	if hc.Fingerprint == ha.Fingerprint {
		t.Fatal("different seed kept the fingerprint")
	}
}

// TestEncodeMatrixRejectsRagged: matrices with missing entries or
// short curves must refuse binary encoding (the store falls back to
// JSON) rather than silently drop data.
func TestEncodeMatrixRejectsRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := testMatrix(rng, 2, 2, 3)
	delete(m.Entries, m.Models[0]+"\x00"+m.Datasets[1])
	if _, err := EncodeMatrix(m); err == nil {
		t.Fatal("matrix with missing entry encoded")
	}
	m = testMatrix(rng, 2, 2, 3)
	m.Entries[m.Models[0]+"\x00"+m.Datasets[0]].Val = []float64{1}
	if _, err := EncodeMatrix(m); err == nil {
		t.Fatal("matrix with short curve encoded")
	}
}

// TestCorruptionNeverPassesChecksum flips every single bit of a valid
// matrix document and of a valid recall document (one at a time,
// exhaustively) and truncates each at every length: Verify and both
// decoders must refuse each mutant as errCorrupt — never decode it, never
// panic.
func TestCorruptionNeverPassesChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	matrixDoc, err := EncodeMatrix(testMatrix(rng, 2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	recallDoc, err := EncodeRecall(testRecall(rng, 3))
	if err != nil {
		t.Fatal(err)
	}
	refused := func(what string, mut []byte) {
		t.Helper()
		if _, err := Verify(mut); !errors.Is(err, errCorrupt) {
			t.Fatalf("%s: Verify = %v, want errCorrupt", what, err)
		}
		if m, err := DecodeMatrix(mut); m != nil || !errors.Is(err, errCorrupt) {
			t.Fatalf("%s: DecodeMatrix = (%v, %v), want errCorrupt", what, m, err)
		}
		if a, err := DecodeRecall(mut); a != nil || !errors.Is(err, errCorrupt) {
			t.Fatalf("%s: DecodeRecall = (%v, %v), want errCorrupt", what, a, err)
		}
	}
	for name, data := range map[string][]byte{"matrix": matrixDoc, "recall": recallDoc} {
		for i := range data {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), data...)
				mut[i] ^= 1 << bit
				refused(fmt.Sprintf("%s: bit %d of byte %d flipped", name, bit, i), mut)
			}
		}
		for n := 0; n < len(data); n++ {
			refused(fmt.Sprintf("%s: truncated to %d bytes", name, n), data[:n])
		}
	}
}

// TestForgedMetaNeverPanics is the regression suite for the uint64
// overflow class: a checksum-valid artifact whose meta section claims a
// shape whose byte size wraps uint64 (assign_len=2^61 so len*8 == 0, a
// matrix whose nM*nD*ep*2*8 wraps) must decode
// to errCorrupt, never pass the size check and panic allocating. The
// fuzzer cannot reach these — mutations never produce valid CRC64s — so
// they are pinned here by crafting the encodings directly.
func TestForgedMetaNeverPanics(t *testing.T) {
	t.Run("recall/assign_len=2^61", func(t *testing.T) {
		data, err := encode(KindRecall, recallMeta{Task: "nlp", AssignLen: 1 << 61}, 0, func([]byte) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRecall(data); !errors.Is(err, errCorrupt) {
			t.Fatalf("forged assign_len decoded: %v", err)
		}
	})
	t.Run("matrix/wrapping-shape", func(t *testing.T) {
		// 2^20 models × 2^20 datasets × 2^24 epochs: the old byte-product
		// check computed 2^20·2^20·2^24·2·8 ≡ 0 (mod 2^64) and accepted an
		// empty payload.
		meta := matrixMeta{
			Task:     "nlp",
			Models:   make([]string, 1<<20),
			Datasets: make([]string, 1<<20),
			Epochs:   1 << 24,
		}
		data, err := encode(KindMatrix, meta, 0, func([]byte) {})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeMatrix(data); !errors.Is(err, errCorrupt) {
			t.Fatalf("wrapping matrix shape decoded: %v", err)
		}
	})
}

// TestDecodeWrongKind: a valid encoding of one kind must not decode as
// another, and a checksum-valid document of a kind this reader does not
// know (3 was the retired frame kind) decodes as nothing.
func TestDecodeWrongKind(t *testing.T) {
	matrix, err := EncodeMatrix(testMatrix(rand.New(rand.NewSource(4)), 2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecall(matrix); !errors.Is(err, errCorrupt) {
		t.Fatalf("matrix decoded as recall: %v", err)
	}
	rec, err := EncodeRecall(&recall.Artifact{Task: "nlp", Models: []string{"m"}, Assign: []int{0}, Clusters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMatrix(rec); !errors.Is(err, errCorrupt) {
		t.Fatalf("recall decoded as matrix: %v", err)
	}
	unknown, err := encode(Kind(3), struct{}{}, 0, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(unknown); err != nil {
		t.Fatalf("well-formed document of an unknown kind fails Verify: %v", err)
	}
	if _, err := DecodeMatrix(unknown); !errors.Is(err, errCorrupt) {
		t.Fatalf("unknown kind decoded as matrix: %v", err)
	}
	if _, err := DecodeRecall(unknown); !errors.Is(err, errCorrupt) {
		t.Fatalf("unknown kind decoded as recall: %v", err)
	}
}
