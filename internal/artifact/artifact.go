// Package artifact is the binary, versioned, checksummed encoding of the
// offline world artifacts — performance matrices and recall (clustering)
// artifacts. It exists because cold start is dominated by JSON decode: the
// expensive payloads are large float64 matrices, and this format stores
// them as raw row-major little-endian words behind a fixed header, so a
// warm start is a read + checksum + fingerprint check instead of a
// reflective parse.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "TPAF"
//	4       2     format version (2)
//	6       2     kind (1 = matrix, 2 = recall)
//	8       8     input fingerprint (CRC-64/ECMA of kind + meta JSON)
//	16      8     body length in bytes
//	24      8     body checksum (CRC-64/ECMA)
//	32      8     header checksum (CRC-64/ECMA of bytes 0..32)
//	40      -     body
//
// The body is a 4-byte meta length, a small JSON meta section carrying
// names and scalar provenance (task, seed, hyperparameters, split sizes),
// zero padding to the next 8-byte boundary, then the raw numeric payload:
// for matrices the two arrays of perfmatrix.Matrix verbatim, float64
// words in its cell order (model-major, dataset-minor) — the validation
// section (E = hp.Epochs words per cell, epoch-innermost) then the
// final-test section (one word per cell); int64 cluster assignments for
// recall artifacts. The fingerprint hashes only the provenance: two
// backends that built the same deterministic world stamp the same
// fingerprint.
//
// A file of another format version fails the header check like any other
// corrupt artifact, and the store's quarantine-and-rebuild path replaces
// it: there is one decoder, for the current layout.
//
// Decoding is strict and total: every length is bounds-checked against
// the real input before any allocation sized from it, and no input —
// truncated, bit-flipped, or adversarial — panics or decodes without
// passing both checksums. Corruption surfaces as an error wrapping
// errCorrupt.
package artifact

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"math"

	"twophase/internal/datahub"
	"twophase/internal/perfmatrix"
	"twophase/internal/recall"
	"twophase/internal/trainer"
)

// Kind identifies which world artifact a file encodes.
type Kind uint16

// The two artifact kinds of the offline pipeline.
const (
	KindMatrix Kind = 1
	KindRecall Kind = 2
)

// String names the kind for errors and logs.
func (k Kind) String() string {
	switch k {
	case KindMatrix:
		return "matrix"
	case KindRecall:
		return "recall"
	default:
		return fmt.Sprintf("kind(%d)", uint16(k))
	}
}

const (
	magic = "TPAF"
	// formatVersion is the on-disk format revision; a reader refuses
	// every other revision rather than misparse it.
	formatVersion = 2
	// headerSize is the fixed byte length of the header.
	headerSize = 40
)

// errCorrupt marks bytes that are not a valid artifact of the expected
// revision: bad magic, a failed checksum, a truncated body, or internal
// lengths that disagree with the data. Every decode error wraps it; the
// store reports any decode failure as its own ErrCorrupt ("rebuild",
// never "absent").
var errCorrupt = errors.New("artifact: corrupt")

// crcTable is the CRC-64/ECMA table shared by every checksum here.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Header is the decoded fixed header.
type Header struct {
	Version     uint16
	Kind        Kind
	Fingerprint uint64
	BodyLen     uint64
	BodyCRC     uint64
}

// parseHeader decodes and validates the fixed header: magic, version and
// the header's own checksum. It does not touch the body.
func parseHeader(data []byte) (Header, error) {
	if len(data) < headerSize {
		return Header{}, fmt.Errorf("%w: %d bytes, header needs %d", errCorrupt, len(data), headerSize)
	}
	if string(data[0:4]) != magic {
		return Header{}, fmt.Errorf("%w: bad magic %q", errCorrupt, data[0:4])
	}
	if got, want := binary.LittleEndian.Uint64(data[32:40]), crc64.Checksum(data[0:32], crcTable); got != want {
		return Header{}, fmt.Errorf("%w: header checksum %016x, want %016x", errCorrupt, got, want)
	}
	h := Header{
		Version:     binary.LittleEndian.Uint16(data[4:6]),
		Kind:        Kind(binary.LittleEndian.Uint16(data[6:8])),
		Fingerprint: binary.LittleEndian.Uint64(data[8:16]),
		BodyLen:     binary.LittleEndian.Uint64(data[16:24]),
		BodyCRC:     binary.LittleEndian.Uint64(data[24:32]),
	}
	if h.Version != formatVersion {
		return Header{}, fmt.Errorf("%w: format version %d, reader speaks %d", errCorrupt, h.Version, formatVersion)
	}
	return h, nil
}

// Verify validates the whole encoding — header, body length and body
// checksum — and returns the header. It is the gate every decode and
// every fetched-over-the-wire artifact passes before any content is
// trusted.
func Verify(data []byte) (Header, error) {
	h, err := parseHeader(data)
	if err != nil {
		return Header{}, err
	}
	if h.BodyLen != uint64(len(data)-headerSize) {
		return Header{}, fmt.Errorf("%w: body length %d, have %d bytes", errCorrupt, h.BodyLen, len(data)-headerSize)
	}
	if got := crc64.Checksum(data[headerSize:], crcTable); got != h.BodyCRC {
		return Header{}, fmt.Errorf("%w: body checksum %016x, want %016x", errCorrupt, got, h.BodyCRC)
	}
	return h, nil
}

// pad8 rounds n up to the next multiple of 8 so the numeric payload is
// 8-byte aligned relative to the body start.
func pad8(n int) int { return (n + 7) &^ 7 }

// encode assembles header + meta + payload. payloadWords is the number of
// 8-byte words the fill callback will write.
func encode(kind Kind, meta interface{}, payloadWords int, fill func(payload []byte)) ([]byte, error) {
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("artifact: marshal %s meta: %w", kind, err)
	}
	payloadOff := pad8(4 + len(metaJSON))
	body := make([]byte, payloadOff+payloadWords*8)
	binary.LittleEndian.PutUint32(body[0:4], uint32(len(metaJSON)))
	copy(body[4:], metaJSON)
	fill(body[payloadOff:])

	data := make([]byte, headerSize+len(body))
	copy(data[0:4], magic)
	binary.LittleEndian.PutUint16(data[4:6], formatVersion)
	binary.LittleEndian.PutUint16(data[6:8], uint16(kind))
	fp := crc64.Checksum(append([]byte{byte(kind), byte(kind >> 8)}, metaJSON...), crcTable)
	binary.LittleEndian.PutUint64(data[8:16], fp)
	binary.LittleEndian.PutUint64(data[16:24], uint64(len(body)))
	binary.LittleEndian.PutUint64(data[24:32], crc64.Checksum(body, crcTable))
	binary.LittleEndian.PutUint64(data[32:40], crc64.Checksum(data[0:32], crcTable))
	copy(data[headerSize:], body)
	return data, nil
}

// decodeBody verifies data, checks the kind, unmarshals the meta section
// and returns the aligned numeric payload.
func decodeBody(data []byte, want Kind, meta interface{}) ([]byte, Header, error) {
	h, err := Verify(data)
	if err != nil {
		return nil, Header{}, err
	}
	if h.Kind != want {
		return nil, Header{}, fmt.Errorf("%w: kind %s, want %s", errCorrupt, h.Kind, want)
	}
	body := data[headerSize:]
	if len(body) < 4 {
		return nil, Header{}, fmt.Errorf("%w: body too short for meta length", errCorrupt)
	}
	metaLen := int(binary.LittleEndian.Uint32(body[0:4]))
	if metaLen < 0 || metaLen > len(body)-4 {
		return nil, Header{}, fmt.Errorf("%w: meta length %d exceeds body %d", errCorrupt, metaLen, len(body))
	}
	if err := json.Unmarshal(body[4:4+metaLen], meta); err != nil {
		return nil, Header{}, fmt.Errorf("%w: meta: %v", errCorrupt, err)
	}
	payloadOff := pad8(4 + metaLen)
	if payloadOff > len(body) {
		return nil, Header{}, fmt.Errorf("%w: meta padding exceeds body", errCorrupt)
	}
	return body[payloadOff:], h, nil
}

// putFloats writes src as little-endian float64 words into dst.
func putFloats(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// getFloats reads n little-endian float64 words from src.
func getFloats(src []byte, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*8:]))
	}
	return out
}

// matrixMeta is the provenance half of a matrix encoding; the two arrays
// live in the numeric payload.
type matrixMeta struct {
	Task     string              `json:"task"`
	Models   []string            `json:"models"`
	Datasets []string            `json:"datasets"`
	Seed     uint64              `json:"seed"`
	HP       trainer.Hyperparams `json:"hp"`
	Sizes    datahub.Sizes       `json:"sizes"`
}

// EncodeMatrix encodes a performance matrix. Its arrays must have the
// matrix's shape — E = HP.Epochs validation words and one test word per
// (model, dataset) cell — which every matrix the offline pipeline builds
// has; any other length is an error.
func EncodeMatrix(m *perfmatrix.Matrix) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("artifact: nil matrix")
	}
	cells, ep := len(m.Models)*len(m.Datasets), m.HP.Epochs
	if ep < 0 {
		return nil, fmt.Errorf("artifact: negative epochs %d", ep)
	}
	if len(m.Val) != cells*ep || len(m.Test) != cells {
		return nil, fmt.Errorf("artifact: matrix arrays hold %d val and %d test words, a %dx%d matrix of %d-epoch curves needs %d and %d",
			len(m.Val), len(m.Test), len(m.Models), len(m.Datasets), ep, cells*ep, cells)
	}
	meta := matrixMeta{
		Task: m.Task, Models: m.Models, Datasets: m.Datasets,
		Seed: m.Seed, HP: m.HP, Sizes: m.Sizes,
	}
	return encode(KindMatrix, meta, len(m.Val)+len(m.Test), func(payload []byte) {
		putFloats(payload, m.Val)
		putFloats(payload[len(m.Val)*8:], m.Test)
	})
}

// DecodeMatrix verifies and decodes a matrix encoding. The result is
// bit-identical to the matrix that was encoded: float64 words round-trip
// exactly.
func DecodeMatrix(data []byte) (*perfmatrix.Matrix, error) {
	var meta matrixMeta
	payload, _, err := decodeBody(data, KindMatrix, &meta)
	if err != nil {
		return nil, err
	}
	nM, nD, ep := len(meta.Models), len(meta.Datasets), meta.HP.Epochs
	// Bound each dimension before multiplying so a hostile meta section
	// cannot overflow the size check into a giant allocation: with every
	// dimension <= 2^20 the element count is <= 2^61 and cannot wrap.
	if ep < 0 || ep > 1<<20 || nM > 1<<20 || nD > 1<<20 {
		return nil, fmt.Errorf("%w: implausible matrix shape %dx%dx%d", errCorrupt, nM, nD, ep)
	}
	// Compare element counts, never byte products: the payload length is
	// ground truth, so a forged meta section can only fail the check.
	cells := uint64(nM) * uint64(nD)
	words := cells * (uint64(ep) + 1)
	if len(payload)%8 != 0 || words != uint64(len(payload))/8 {
		return nil, fmt.Errorf("%w: matrix payload %d bytes, shape %dx%dx%d needs %d words",
			errCorrupt, len(payload), nM, nD, ep, words)
	}
	nVal := int(cells) * ep
	return &perfmatrix.Matrix{
		Task: meta.Task, Models: meta.Models, Datasets: meta.Datasets,
		Seed: meta.Seed, HP: meta.HP, Sizes: meta.Sizes,
		Val:  getFloats(payload, nVal),
		Test: getFloats(payload[nVal*8:], int(cells)),
	}, nil
}

// recallMeta is the provenance half of a recall encoding; the cluster
// assignment vector lives in the numeric payload.
type recallMeta struct {
	Task        string   `json:"task"`
	Seed        uint64   `json:"seed"`
	SimilarityK int      `json:"similarity_k"`
	Threshold   float64  `json:"threshold"`
	Models      []string `json:"models"`
	Clusters    int      `json:"clusters"`
	AssignLen   int      `json:"assign_len"`
}

// EncodeRecall encodes a clustering-stage artifact.
func EncodeRecall(a *recall.Artifact) ([]byte, error) {
	if a == nil {
		return nil, fmt.Errorf("artifact: nil recall artifact")
	}
	meta := recallMeta{
		Task: a.Task, Seed: a.Seed, SimilarityK: a.SimilarityK,
		Threshold: a.Threshold, Models: a.Models,
		Clusters: a.Clusters, AssignLen: len(a.Assign),
	}
	return encode(KindRecall, meta, len(a.Assign), func(payload []byte) {
		for i, v := range a.Assign {
			binary.LittleEndian.PutUint64(payload[i*8:], uint64(int64(v)))
		}
	})
}

// DecodeRecall verifies and decodes a recall encoding.
func DecodeRecall(data []byte) (*recall.Artifact, error) {
	var meta recallMeta
	payload, _, err := decodeBody(data, KindRecall, &meta)
	if err != nil {
		return nil, err
	}
	// Compare element counts, never byte products: uint64(AssignLen)*8
	// wraps for AssignLen >= 2^61, letting a checksum-valid forged meta
	// drive a giant allocation. len(payload)/8 cannot be forged.
	if meta.AssignLen < 0 || len(payload)%8 != 0 || uint64(meta.AssignLen) != uint64(len(payload))/8 {
		return nil, fmt.Errorf("%w: recall payload %d bytes, assign length %d",
			errCorrupt, len(payload), meta.AssignLen)
	}
	var assign []int
	if meta.AssignLen > 0 {
		assign = make([]int, meta.AssignLen)
		for i := range assign {
			assign[i] = int(int64(binary.LittleEndian.Uint64(payload[i*8:])))
		}
	}
	return &recall.Artifact{
		Task: meta.Task, Seed: meta.Seed, SimilarityK: meta.SimilarityK,
		Threshold: meta.Threshold, Models: meta.Models,
		Assign: assign, Clusters: meta.Clusters,
	}, nil
}
