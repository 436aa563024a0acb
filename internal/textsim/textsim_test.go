package textsim

import (
	"math"
	"testing"
	"testing/quick"
)

func embed(text string) []float64 { return embedInto(text, make([]float64, dim)) }

// similarity is the cosine similarity of two embedded cards (embeddings
// are unit-norm, so the dot product).
func similarity(cardA, cardB string) float64 {
	a, b := embed(cardA), embed(cardB)
	var dot float64
	for i := range a {
		dot += a[i] * b[i]
	}
	return dot
}

func TestTokenize(t *testing.T) {
	got := tokenize("BERT-base, fine-tuned on QQP (v2)!")
	want := []string{"bert", "base", "fine", "tuned", "on", "qqp", "v2"}
	if len(got) != len(want) {
		t.Fatalf("tokens %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if len(tokenize("")) != 0 {
		t.Fatal("empty text should have no tokens")
	}
}

func TestEmbedUnitNorm(t *testing.T) {
	v := embed("a model card with some words")
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-9 {
		t.Fatalf("embedding norm %v", math.Sqrt(norm))
	}
	if len(v) != dim {
		t.Fatalf("dim %d", len(v))
	}
}

func TestEmbedEmptyIsZero(t *testing.T) {
	for _, x := range embed("") {
		if x != 0 {
			t.Fatal("empty text should embed to zero")
		}
	}
}

func TestSimilaritySelf(t *testing.T) {
	card := "bert base uncased fine-tuned on mnli"
	if got := similarity(card, card); math.Abs(got-1) > 1e-9 {
		t.Fatalf("self similarity %v", got)
	}
}

func TestSimilarityOrdering(t *testing.T) {
	a := "bert base fine-tuned on qqp paraphrase detection"
	b := "bert base fine-tuned on qqp duplicate questions"
	c := "vision transformer trained on imagenet photographs"
	if similarity(a, b) <= similarity(a, c) {
		t.Fatalf("shared-vocabulary cards not closer: %v vs %v", similarity(a, b), similarity(a, c))
	}
}

func TestSimilarityBoundsProperty(t *testing.T) {
	f := func(a, b string) bool {
		s := similarity(a, b)
		return !math.IsNaN(s) && s >= -1-1e-9 && s <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmbedDeterministic(t *testing.T) {
	a, b := embed("same text"), embed("same text")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding not deterministic")
		}
	}
}
