package main

import "testing"

func TestRunListTargets(t *testing.T) {
	if err := run("nlp", "", 42, 0, false, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingTarget(t *testing.T) {
	if err := run("nlp", "", 42, 0, false, false); err == nil {
		t.Fatal("missing target accepted")
	}
}

func TestRunUnknownTask(t *testing.T) {
	if err := run("audio", "x", 42, 0, false, false); err == nil {
		t.Fatal("unknown task accepted")
	}
}

func TestRunUnknownTarget(t *testing.T) {
	if err := run("nlp", "no-such-dataset", 42, 0, false, false); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline; skipped in -short")
	}
	if err := run("nlp", "tweet_eval", 42, 5, false, false); err != nil {
		t.Fatal(err)
	}
}

func TestShorten(t *testing.T) {
	got := shorten([]string{"a/b", "c/d", "e", "f", "g"}, 3)
	if len(got) != 4 || got[0] != "b" || got[3] != "+2 more" {
		t.Fatalf("shorten = %v", got)
	}
}

func TestPrintPlan(t *testing.T) {
	if err := printPlan("nlp", 0); err != nil {
		t.Fatal(err)
	}
	if err := printPlan("cv", 8); err != nil {
		t.Fatal(err)
	}
}
