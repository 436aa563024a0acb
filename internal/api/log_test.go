package api

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// lockedBuffer is a bytes.Buffer that server goroutines may log into while
// the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// captureEvents logs through LogJSON into a buffer for the rest of the test
// and returns a reader of the records with a given event name so far, each
// decoded from its one JSON line.
func captureEvents(t *testing.T) func(event string) []map[string]any {
	t.Helper()
	prev := slog.Default()
	t.Cleanup(func() { slog.SetDefault(prev) })
	var out lockedBuffer
	LogJSON(&out)
	return func(event string) []map[string]any {
		out.mu.Lock()
		defer out.mu.Unlock()
		var recs []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(out.buf.String()), "\n") {
			if line == "" {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log record is not one JSON object: %v\n%s", err, line)
			}
			if rec["event"] == event {
				recs = append(recs, rec)
			}
		}
		return recs
	}
}

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
