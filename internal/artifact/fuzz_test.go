package artifact

import (
	"hash/crc64"
	"math/rand"
	"testing"

	"twophase/internal/recall"
)

// FuzzArtifactDecode throws arbitrary bytes at every decoder. The
// contract under fuzz: no input panics, nothing decodes without passing
// both checksums, and anything Verify accepts is internally consistent
// (the body checksum it reports really is the checksum of the body it
// carries).
func FuzzArtifactDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	m := testMatrix(rng, 2, 2, 3)
	// A version-1 matrix with valid checksums: the header check refuses it.
	f.Add(encodeV1(f, m))
	if data, err := EncodeMatrix(m); err == nil {
		f.Add(data)
		// Seed a few systematic corruptions so coverage starts past the
		// magic check even before the fuzzer mutates.
		trunc := data[:len(data)/2]
		f.Add(trunc)
		flip := append([]byte(nil), data...)
		flip[headerSize/2] ^= 0xff
		f.Add(flip)
	}
	if data, err := EncodeRecall(&recall.Artifact{Task: "nlp", Models: []string{"m"}, Assign: []int{0}, Clusters: 1}); err == nil {
		f.Add(data)
	}
	// A checksum-valid document of a kind no decoder knows (3 was the
	// retired frame kind): Verify accepts it, every decoder must refuse.
	if data, err := encode(Kind(3), struct{}{}, 1, func([]byte) {}); err == nil {
		f.Add(data)
	}
	f.Add([]byte(magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, verr := Verify(data)
		if verr == nil {
			if got := crc64.Checksum(data[headerSize:], crcTable); got != h.BodyCRC {
				t.Fatalf("Verify accepted a body whose checksum %016x != header %016x", got, h.BodyCRC)
			}
		}
		if m, err := DecodeMatrix(data); err == nil {
			if verr != nil {
				t.Fatalf("matrix decoded from bytes Verify rejects: %v", verr)
			}
			if m == nil {
				t.Fatal("nil matrix with nil error")
			}
		}
		if a, err := DecodeRecall(data); err == nil {
			if verr != nil {
				t.Fatalf("recall decoded from bytes Verify rejects: %v", verr)
			}
			if a == nil {
				t.Fatal("nil recall with nil error")
			}
		}
	})
}
