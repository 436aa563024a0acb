package main

import (
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "42", "", true); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, id := range []string{"fig1", "tab6", "extEnsemble"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list output missing %q:\n%s", id, out)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "42", "nope", false); err == nil {
		t.Fatal("unknown id accepted")
	}
	if err := run(&b, "3-1", "tabX", false); err == nil {
		t.Fatal("reversed seed range accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full framework; skipped in -short")
	}
	var b strings.Builder
	if err := run(&b, "42", "tabX", false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// title, header, separator, 6 rows, the note and a blank line
	if lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n"); len(lines) != 11 ||
		!strings.Contains(lines[0], "Table X") || !strings.HasPrefix(lines[1], "task") {
		t.Fatalf("tabX rendered as:\n%s", out)
	}
}
