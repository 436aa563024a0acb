package api

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// panicAPI is an API stub whose Select panics.
type panicAPI struct{ errAPI }

func (panicAPI) Select(context.Context, *SelectRequest) (*SelectResponse, error) {
	panic("boom")
}

// TestLogJSONRecordShape: under LogJSON a library record is one JSON line
// whose stable name is under "event" (no "msg"), with typed attrs and the
// stack as a single attr — the shape the recovered-panic record, the
// longest of them, must keep.
func TestLogJSONRecordShape(t *testing.T) {
	defer slog.SetDefault(slog.Default())
	var buf bytes.Buffer
	LogJSON(&buf)
	ts := httptest.NewServer(NewHandlerWith(panicAPI{}, HandlerOptions{}))
	defer ts.Close()
	res, err := http.Post(ts.URL+"/v1/select", "application/json", strings.NewReader(`{"task":"nlp","targets":["tweet_eval"]}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want the typed 500", res.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("one panic logged %d records:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("record is not one JSON object: %v\n%s", err, lines[0])
	}
	if rec["event"] != "api.panic" || rec["level"] != "ERROR" || rec["path"] != "POST /v1/select" || rec["err"] != "boom" {
		t.Fatalf("record = %v", rec)
	}
	if stack, _ := rec["stack"].(string); !strings.Contains(stack, "panicAPI") {
		t.Fatalf("stack attr does not hold the panicking frame: %q", stack)
	}
	if _, ok := rec["msg"]; ok {
		t.Fatalf(`record carries "msg" beside "event": %s`, lines[0])
	}
}
