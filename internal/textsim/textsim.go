// Package textsim implements the text-based model-similarity baseline of
// Table I: embed each model card into a vector and compare cards by cosine
// similarity. The paper uses SBERT; offline and stdlib-only, we substitute
// a deterministic hashed bag-of-words embedding, which preserves the only
// property the comparison needs — cards with shared vocabulary land close
// together, regardless of whether the models behave alike.
package textsim

import (
	"hash/fnv"
	"math"
	"strings"

	"twophase/internal/numeric"
)

// dim is the embedding dimensionality.
const dim = 64

// EmbedAll embeds every text into one contiguous frame, a card per row —
// the flat-buffer form downstream clustering streams without per-card
// pointer chasing.
func EmbedAll(texts []string) *numeric.Frame {
	f := numeric.NewFrame(len(texts), dim)
	for i, text := range texts {
		embedInto(text, f.Row(i))
	}
	return f
}

// embedInto writes the embedding of text — a unit-norm hashed bag-of-words
// vector — into v (length dim) and returns it. Tokens are lowercase
// alphanumeric runs; each token adds a signed hashed one-hot (the classic
// "hashing trick" with a sign hash to reduce collisions' bias).
func embedInto(text string, v []float64) []float64 {
	for i := range v {
		v[i] = 0
	}
	for _, tok := range tokenize(text) {
		h := fnv.New64a()
		_, _ = h.Write([]byte(tok))
		sum := h.Sum64()
		idx := int(sum % dim)
		sign := 1.0
		if (sum>>32)&1 == 1 {
			sign = -1.0
		}
		v[idx] += sign
	}
	var norm float64
	for _, x := range v {
		norm += float64(x * x)
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] /= norm
		}
	}
	return v
}

// tokenize splits text into lowercase alphanumeric tokens.
func tokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range strings.ToLower(text) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}
