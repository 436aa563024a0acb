package store

import (
	"strings"
	"testing"
)

// FuzzSlugInjective upgrades the brute-force injectivity walk in
// TestSlugRoundTrip to native fuzzing: for arbitrary artifact names the
// encoding must round-trip exactly (which implies injectivity — two
// names colliding on one file could not both decode back) and produce a
// file name safe for a flat store directory.
//
// CI runs this as a short -fuzztime smoke on every push; the seed corpus
// below always runs under plain `go test`.
func FuzzSlugInjective(f *testing.F) {
	for _, name := range []string{
		"", "plain", "a/b", "a__b", "a b", "a_b", "a%5Fb", "pct%name",
		"tri___ple", "glue/cola", "nlp-seed42", "%25", "__", "%", "_", "/",
		" ", "a/b/c", "mix_ %/x", "Jeevesh8/bert_ft_qqp-40",
	} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		file := slug(name)
		base, ok := strings.CutSuffix(file, ".bin")
		if !ok {
			t.Fatalf("slug(%q) = %q lost its .bin suffix", name, file)
		}
		// Round-trip exactness: the file name alone recovers the name.
		if got := unslug(base); got != name {
			t.Fatalf("slug(%q) = %q decodes to %q", name, file, got)
		}
		// Flat-directory safety: no separators, no spaces.
		if strings.ContainsAny(base, "/ ") {
			t.Fatalf("slug(%q) = %q contains a path or space character", name, file)
		}
	})
}

// FuzzSlugPairwise feeds the fuzzer explicit name pairs so it can hunt
// for collisions directly instead of relying on round-trip reasoning.
func FuzzSlugPairwise(f *testing.F) {
	f.Add("a/b", "a__b")
	f.Add("a b", "a_b")
	f.Add("a%5Fb", "a_b")
	f.Add("x", "y")
	f.Fuzz(func(t *testing.T, a, b string) {
		if a != b && slug(a) == slug(b) {
			t.Fatalf("slug collision: %q and %q -> %q", a, b, slug(a))
		}
	})
}
