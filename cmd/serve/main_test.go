package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"twophase/internal/api"
	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/service"
)

var testSizes = datahub.Sizes{Train: 60, Val: 40, Test: 48}

func decode(t *testing.T, buf *bytes.Buffer) api.SelectResponse {
	t.Helper()
	var doc api.SelectResponse
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, buf.String())
	}
	return doc
}

func TestRunBatch(t *testing.T) {
	var buf bytes.Buffer
	cfg := config{
		task:    datahub.TaskNLP,
		targets: "tweet_eval, super_glue/boolq",
		seed:    42,
		sizes:   testSizes,
	}
	if err := run(context.Background(), &buf, cfg); err != nil {
		t.Fatal(err)
	}
	doc := decode(t, &buf)
	if doc.APIVersion != api.Version || doc.Task != datahub.TaskNLP || len(doc.Results) != 2 {
		t.Fatalf("unexpected document: %+v", doc)
	}
	if doc.Strategy != string(core.StrategyTwoPhase) {
		t.Fatalf("default strategy is %q, want two-phase", doc.Strategy)
	}
	for _, tr := range doc.Results {
		if tr.Error != "" {
			t.Fatalf("target %s errored: %s", tr.Target, tr.Error)
		}
		if tr.Winner == "" || tr.TestAcc <= 0 || tr.Epochs <= 0 {
			t.Fatalf("incomplete result: %+v", tr)
		}
	}
	if doc.Results[0].Target != "tweet_eval" {
		t.Fatalf("results not in request order: %+v", doc.Results)
	}
	if doc.Failed != 0 || doc.TotalEpochs <= 0 || doc.OfflineBuilds != 1 {
		t.Fatalf("batch totals wrong: %+v", doc)
	}
	// The batch total is the sum of this request's per-target ledgers.
	var sum float64
	for _, tr := range doc.Results {
		sum += tr.Epochs
	}
	if doc.TotalEpochs != sum {
		t.Fatalf("total_epochs %v != per-result sum %v", doc.TotalEpochs, sum)
	}
}

func TestRunAllWithStore(t *testing.T) {
	dir := t.TempDir()
	cfg := config{task: datahub.TaskNLP, all: true, seed: 42, storeDir: dir, sizes: testSizes}

	var first bytes.Buffer
	if err := run(context.Background(), &first, cfg); err != nil {
		t.Fatal(err)
	}
	docA := decode(t, &first)
	if docA.OfflineBuilds != 1 {
		t.Fatalf("first run built %d frameworks, want 1", docA.OfflineBuilds)
	}

	// Second process over the same store serves without rebuilding and
	// returns identical selections.
	var second bytes.Buffer
	if err := run(context.Background(), &second, cfg); err != nil {
		t.Fatal(err)
	}
	docB := decode(t, &second)
	if docB.OfflineBuilds != 0 {
		t.Fatalf("second run built %d frameworks, want 0 (store hit)", docB.OfflineBuilds)
	}
	if len(docA.Results) != len(docB.Results) {
		t.Fatalf("target counts differ: %d vs %d", len(docA.Results), len(docB.Results))
	}
	for i := range docA.Results {
		if !reflect.DeepEqual(docA.Results[i], docB.Results[i]) {
			t.Fatalf("store-served selection differs at %s:\n%+v\nvs\n%+v",
				docA.Results[i].Target, docA.Results[i], docB.Results[i])
		}
	}
}

// TestCLIMatchesHTTP is the contract-sharing guarantee: the same request
// served in process and through a real HTTP server round-trip must yield
// bit-identical selection results for the same seed.
func TestCLIMatchesHTTP(t *testing.T) {
	svc, err := service.New(service.Options{Base: core.Options{Seed: 42, Sizes: testSizes}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.NewHandlerWith(api.NewDispatcher(svc, 42), api.HandlerOptions{}))
	defer ts.Close()

	cfg := config{task: datahub.TaskNLP, targets: "tweet_eval,super_glue/boolq", seed: 42, sizes: testSizes}
	var local bytes.Buffer
	if err := run(context.Background(), &local, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.server = ts.URL
	var remote bytes.Buffer
	if err := run(context.Background(), &remote, cfg); err != nil {
		t.Fatal(err)
	}
	docL, docR := decode(t, &local), decode(t, &remote)
	if !reflect.DeepEqual(docL.Results, docR.Results) {
		t.Fatalf("HTTP-served results differ from in-process:\n%+v\nvs\n%+v", docL.Results, docR.Results)
	}
	if docL.TotalEpochs != docR.TotalEpochs || docL.Failed != docR.Failed {
		t.Fatalf("HTTP totals differ: %+v vs %+v", docL, docR)
	}
}

func TestRunStrategyFlag(t *testing.T) {
	var buf bytes.Buffer
	cfg := config{task: datahub.TaskNLP, targets: "tweet_eval", strategy: "sh", seed: 42, sizes: testSizes}
	if err := run(context.Background(), &buf, cfg); err != nil {
		t.Fatal(err)
	}
	doc := decode(t, &buf)
	if doc.Strategy != string(core.StrategySH) {
		t.Fatalf("strategy %q, want sh", doc.Strategy)
	}
	if doc.Results[0].Winner == "" || doc.Results[0].Recalled != 0 {
		t.Fatalf("sh result should have a winner and no recall phase: %+v", doc.Results[0])
	}
}

// TestRunAllTargetsFailed locks in the exit contract: when every target
// in the batch fails, the document still prints (with the failed count)
// and run returns an error so the process exits nonzero.
func TestRunAllTargetsFailed(t *testing.T) {
	var buf bytes.Buffer
	cfg := config{task: datahub.TaskNLP, targets: "no-such-a,no-such-b", seed: 42, sizes: testSizes}
	err := run(context.Background(), &buf, cfg)
	if err == nil {
		t.Fatal("run returned nil although every target failed")
	}
	doc := decode(t, &buf)
	if doc.Failed != 2 || len(doc.Results) != 2 {
		t.Fatalf("failed count %d of %d results, want 2 of 2", doc.Failed, len(doc.Results))
	}
	for _, tr := range doc.Results {
		if tr.ErrorCode != api.CodeUnknownTarget {
			t.Fatalf("error code %q, want %q: %+v", tr.ErrorCode, api.CodeUnknownTarget, tr)
		}
	}

	// A partial failure keeps exit code zero: the document reports it.
	buf.Reset()
	cfg.targets = "tweet_eval,no-such-b"
	if err := run(context.Background(), &buf, cfg); err != nil {
		t.Fatalf("partial failure must not fail the run: %v", err)
	}
	if doc := decode(t, &buf); doc.Failed != 1 {
		t.Fatalf("failed count %d, want 1", doc.Failed)
	}
}

// TestRunListTargets: the listing is the registry's catalog, in or out of
// process — with -server it names an address nothing listens on and still
// answers, because listing makes no request.
func TestRunListTargets(t *testing.T) {
	want, err := datahub.TargetNames(datahub.TaskNLP)
	if err != nil {
		t.Fatal(err)
	}
	for _, server := range []string{"", "http://127.0.0.1:1"} {
		var buf bytes.Buffer
		cfg := config{task: datahub.TaskNLP, listTargets: true, seed: 42, sizes: testSizes, server: server}
		if err := run(context.Background(), &buf, cfg); err != nil {
			t.Fatal(err)
		}
		if got := strings.Split(strings.TrimSpace(buf.String()), "\n"); !reflect.DeepEqual(got, want) {
			t.Fatalf("server %q: listed %v, want the 4 NLP targets %v", server, got, want)
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, &bytes.Buffer{}, config{task: datahub.TaskNLP, sizes: testSizes}); err == nil {
		t.Fatal("no targets accepted")
	}
	if err := run(ctx, &bytes.Buffer{}, config{task: datahub.TaskNLP, all: true, targets: "x", sizes: testSizes}); err == nil {
		t.Fatal("-all with -targets accepted")
	}
	if err := run(ctx, &bytes.Buffer{}, config{task: "audio", all: true, sizes: testSizes}); err == nil {
		t.Fatal("unknown task accepted")
	}
	if err := run(ctx, &bytes.Buffer{}, config{task: datahub.TaskNLP, targets: "tweet_eval", strategy: "zigzag", sizes: testSizes}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// Server-side knobs must be rejected, not silently ignored, in
	// client mode.
	if err := run(ctx, &bytes.Buffer{}, config{task: datahub.TaskNLP, targets: "x", server: "http://127.0.0.1:1", storeDir: "/tmp/x"}); err == nil {
		t.Fatal("-store accepted with -server")
	}
	if err := run(ctx, &bytes.Buffer{}, config{task: datahub.TaskNLP, targets: "x", server: "http://127.0.0.1:1", buildWorkers: 2}); err == nil {
		t.Fatal("-build-workers accepted with -server")
	}
	if err := run(ctx, &bytes.Buffer{}, config{task: datahub.TaskNLP, targets: "x", server: "http://127.0.0.1:1", workers: 2}); err == nil {
		t.Fatal("-workers accepted with -server")
	}
}
