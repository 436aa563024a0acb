package api

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"twophase/internal/datahub"
	"twophase/internal/selection"
)

func epochs(n int) *int { return &n }

// TestZeroBudgetBatchTruncation is the batch-ledger contract under
// truncation: a zero-epoch budget truncates every target, each target
// still reports a best-so-far winner, and the batch total_epochs sums the
// partial per-target ledgers — proxy inference during coarse recall is
// real spend, so the total is nonzero even though no epoch was trained.
func TestZeroBudgetBatchTruncation(t *testing.T) {
	d, _ := newTestDispatcher(t)
	resp, err := d.Select(context.Background(), &SelectRequest{
		Task:          datahub.TaskNLP,
		Targets:       []string{"tweet_eval", "super_glue/boolq"},
		SelectOptions: SelectOptions{MaxEpochs: epochs(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated != len(resp.Results) {
		t.Fatalf("truncated count %d, want every one of %d targets", resp.Truncated, len(resp.Results))
	}
	for _, r := range resp.Results {
		if !r.Truncated || r.Budget == nil {
			t.Fatalf("zero-budget target not marked truncated: %+v", r)
		}
		if r.Budget.TruncatedBy != selection.TruncatedByEpochs {
			t.Fatalf("truncated_by = %q, want %q", r.Budget.TruncatedBy, selection.TruncatedByEpochs)
		}
		if r.Budget.MaxEpochs == nil || *r.Budget.MaxEpochs != 0 {
			t.Fatalf("budget block lost the cap: %+v", r.Budget)
		}
		if r.Winner == "" {
			t.Fatalf("truncated target has no best-so-far winner: %+v", r)
		}
		if r.Epochs <= 0 {
			t.Fatalf("truncated target reports no spend (%v); partial ledgers must be counted", r.Epochs)
		}
	}
	if resp.TotalEpochs <= 0 {
		t.Fatalf("batch total_epochs = %v, want the nonzero sum of partial ledgers", resp.TotalEpochs)
	}
	want := 0.0
	for _, r := range resp.Results {
		want += r.Epochs
	}
	if resp.TotalEpochs != want {
		t.Fatalf("batch total %v != sum of per-target ledgers %v", resp.TotalEpochs, want)
	}
}

// TestBudgetHTTPRoundTrip proves the budget thread end to end: a fixed
// epoch budget produces bit-identical truncated results through the
// in-process dispatcher and through a real server + client, as HTTP 200 —
// truncation is a successful response, never an error.
func TestBudgetHTTPRoundTrip(t *testing.T) {
	d, _ := newTestDispatcher(t)
	ts := httptest.NewServer(NewHandlerWith(d, HandlerOptions{}))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	req := &SelectRequest{
		Task:          datahub.TaskNLP,
		Targets:       []string{"tweet_eval", "super_glue/boolq"},
		SelectOptions: SelectOptions{Strategy: "sh", MaxEpochs: epochs(1)},
	}
	direct, err := d.Select(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := c.Select(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Results, wire.Results) {
		t.Fatalf("budgeted results differ across paths:\n%+v\nvs\n%+v", direct.Results, wire.Results)
	}
	if wire.Truncated != len(wire.Results) {
		t.Fatalf("1-epoch SH budget must truncate every target: %+v", wire)
	}
	for _, r := range wire.Results {
		if !r.Truncated || r.Winner == "" || r.Budget == nil {
			t.Fatalf("truncated wire result malformed: %+v", r)
		}
	}
}

// TestDeadlineHTTPReturns200 is the acceptance check for anytime
// selection over the wire: a tiny deadline_ms yields HTTP 200 with
// truncated: true and a best-so-far winner — never a 499 or an error.
// Brute force re-checks the budget before every epoch, so a 1ms deadline
// on a warm framework is always hit.
func TestDeadlineHTTPReturns200(t *testing.T) {
	d, svc := newTestDispatcher(t)
	ts := httptest.NewServer(NewHandlerWith(d, HandlerOptions{}))
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	warm(t, svc)
	resp, err := c.Select(ctx, &SelectRequest{
		Task:          datahub.TaskNLP,
		Targets:       []string{"tweet_eval"},
		SelectOptions: SelectOptions{Strategy: "bf", DeadlineMS: 1},
	})
	if err != nil {
		t.Fatalf("deadline must truncate, not fail: %v", err)
	}
	r := resp.Results[0]
	if !r.Truncated || r.Winner == "" {
		t.Fatalf("deadline response not truncated-with-winner: %+v", r)
	}
	if r.Budget == nil || r.Budget.TruncatedBy != selection.TruncatedByDeadline {
		t.Fatalf("budget block wrong: %+v", r.Budget)
	}
	if r.Budget.DeadlineMS != 1 {
		t.Fatalf("budget block lost the deadline: %+v", r.Budget)
	}
}
