package artifact

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"math/rand"
	"reflect"
	"strings"
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
		Task:  "nlp",
		Seed:  42,
		HP:    trainer.Hyperparams{LearningRate: 0.1, BatchSize: 8, Epochs: ep, L2: 1e-4},
		Sizes: datahub.Sizes{Train: 60, Val: 40, Test: 48},
		Val:   make([]float64, nM*nD*ep),
		Test:  make([]float64, nM*nD),
	}
	for i := 0; i < nM; i++ {
		m.Models = append(m.Models, "model_"+string(rune('a'+i)))
	}
	for j := 0; j < nD; j++ {
		m.Datasets = append(m.Datasets, "data/"+string(rune('a'+j)))
	}
	for k := range m.Val {
		m.Val[k] = rng.Float64() / 3
	}
	for k := range m.Test {
		m.Test[k] = rng.NormFloat64() * 1e-300
	}
	return m
}

// encodeV1 lays m out as format version 1 wrote a matrix, under a
// version-1 header whose checksums are valid: an "epochs" key in the meta,
// and after the validation section an E-word test curve per cell (here
// the final accuracy E times) where version 2 keeps one word.
func encodeV1(t testing.TB, m *perfmatrix.Matrix) []byte {
	t.Helper()
	meta := struct {
		matrixMeta
		Epochs int `json:"epochs"`
	}{matrixMeta{m.Task, m.Models, m.Datasets, m.Seed, m.HP, m.Sizes}, m.HP.Epochs}
	ep := m.HP.Epochs
	data, err := encode(KindMatrix, meta, 2*len(m.Val), func(payload []byte) {
		putFloats(payload, m.Val)
		for c, v := range m.Test {
			for e := 0; e < ep; e++ {
				binary.LittleEndian.PutUint64(payload[(len(m.Val)+c*ep+e)*8:], math.Float64bits(v))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return withVersion(data, 1)
}

// withVersion returns a copy of an encoding stamped with another format
// version, its header checksum recomputed so only the version is wrong.
func withVersion(data []byte, v uint16) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(out[4:6], v)
	binary.LittleEndian.PutUint64(out[32:40], crc64.Checksum(out[0:32], crcTable))
	return out
}

// TestMatrixRoundTrip is the property test of the matrix codec:
// Decode ∘ Encode is the identity, bit for bit, across seeded random
// shapes — 0×N, N×0, 1×1 and zero-epoch curves — and awkward values.
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
		meta, err := json.Marshal(matrixMeta{m.Task, m.Models, m.Datasets, m.Seed, m.HP, m.Sizes})
		if err != nil {
			t.Fatal(err)
		}
		// E + 1 payload words per cell.
		if want := headerSize + pad8(4+len(meta)) + 8*len(m.Models)*len(m.Datasets)*(shape[2]+1); len(data) != want {
			t.Fatalf("trial %d (shape %v): %d bytes, want %d", trial, shape, len(data), want)
		}
		got, err := DecodeMatrix(data)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("trial %d (shape %v): decode(encode(m)) != m:\n%+v\nvs\n%+v", trial, shape, got, m)
		}
		for _, arr := range [][2][]float64{{m.Val, got.Val}, {m.Test, got.Test}} {
			for k := range arr[0] {
				if math.Float64bits(arr[0][k]) != math.Float64bits(arr[1][k]) {
					t.Fatalf("trial %d: word %d not bit-identical", trial, k)
				}
			}
		}
	}
}

// TestVersion1Refused: a version-1 matrix — its checksums valid, its
// layout the old one — is corrupt to this reader, so the store
// quarantines it and rebuilds; and the same bytes stamped version 2 fail
// the payload-shape check, so no reader misparses one layout as the other.
func TestVersion1Refused(t *testing.T) {
	m := testMatrix(rand.New(rand.NewSource(7)), 3, 2, 4)
	v1 := encodeV1(t, m)
	if _, err := Verify(v1); !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("Verify(v1) = %v, want errCorrupt naming the version", err)
	}
	if got, err := DecodeMatrix(v1); got != nil || !errors.Is(err, errCorrupt) {
		t.Fatalf("DecodeMatrix(v1) = (%v, %v), want errCorrupt", got, err)
	}
	if got, err := DecodeMatrix(withVersion(v1, formatVersion)); got != nil || !errors.Is(err, errCorrupt) {
		t.Fatalf("a version-1 payload under a current header decoded: (%v, %v)", got, err)
	}
}

// testRecall builds a seeded random clustering artifact over n models:
// assignments span negatives and the int extremes.
func testRecall(rng *rand.Rand, n int) *recall.Artifact {
	a := &recall.Artifact{
		Task: "cv", Seed: rng.Uint64(), SimilarityK: rng.Intn(9), Threshold: rng.NormFloat64(),
		Clusters: rng.Intn(n + 1),
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

// TestRecallDecodesScorerKey: recall encodings once also recorded the
// proxy scorer, which never shaped the clustering. Such an encoding (its
// meta laid out as it was written, "scorer" key included) must decode to
// the same Artifact as the current encoding, so a store written with the
// key still warm-starts the clustering stage.
func TestRecallDecodesScorerKey(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 16; trial++ {
		a := testRecall(rng, trial%8)
		meta := struct {
			Task        string   `json:"task"`
			Seed        uint64   `json:"seed"`
			SimilarityK int      `json:"similarity_k"`
			Threshold   float64  `json:"threshold"`
			Scorer      string   `json:"scorer"`
			Models      []string `json:"models"`
			Clusters    int      `json:"clusters"`
			AssignLen   int      `json:"assign_len"`
		}{a.Task, a.Seed, a.SimilarityK, a.Threshold, "leep-calibrated", a.Models, a.Clusters, len(a.Assign)}
		data, err := encode(KindRecall, meta, len(a.Assign), func(payload []byte) {
			for i, v := range a.Assign {
				binary.LittleEndian.PutUint64(payload[i*8:], uint64(int64(v)))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRecall(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		current, err := EncodeRecall(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeRecall(current)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, a) {
			t.Fatalf("trial %d: encoding with a scorer key decoded to\n%+v\nwant\n%+v", trial, got, want)
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

// TestEncodeMatrixRejectsRagged: a matrix whose arrays do not have its
// shape — a validation curve short, a final accuracy missing — must
// refuse encoding rather than write a document no decoder would accept.
func TestEncodeMatrixRejectsRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := testMatrix(rng, 2, 2, 3)
	m.Val = m.Val[:len(m.Val)-1]
	if _, err := EncodeMatrix(m); err == nil {
		t.Fatal("matrix with a short validation section encoded")
	}
	m = testMatrix(rng, 2, 2, 3)
	m.Test = m.Test[:len(m.Test)-1]
	if _, err := EncodeMatrix(m); err == nil {
		t.Fatal("matrix with a short test section encoded")
	}
	m = testMatrix(rng, 2, 2, 3)
	m.Test = append(m.Test, m.Test...)
	if _, err := EncodeMatrix(m); err == nil {
		t.Fatal("matrix with a per-epoch test section encoded")
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
// matrix whose nM*nD*(ep+1)*8 wraps) must decode
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
		// 2^20 models × 2^20 datasets × 2^24 epochs: a byte-product check
		// would compute 2^20·2^20·2^24·2·8 ≡ 0 (mod 2^64) for a two-curve
		// cell and accept an empty payload.
		meta := matrixMeta{
			Task:     "nlp",
			Models:   make([]string, 1<<20),
			Datasets: make([]string, 1<<20),
			HP:       trainer.Hyperparams{Epochs: 1 << 24},
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
