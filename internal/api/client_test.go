package api

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestClientCapsResponseBody: a peer streaming a response past the cap
// costs the client the cap, not the stream — do stops reading, and the
// select fails as a typed internal error, the router's cue to fail over.
func TestClientCapsResponseBody(t *testing.T) {
	defer func(old int64) { maxResponseBytes = old }(maxResponseBytes)
	maxResponseBytes = 64 << 10
	const stream = 64 << 20
	written := make(chan int64, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		n, _ := io.WriteString(w, `{"api_version":"`)
		total := int64(n)
		chunk := bytes.Repeat([]byte("a"), 32<<10)
		for total < stream {
			k, err := w.Write(chunk)
			total += int64(k)
			if err != nil {
				break
			}
		}
		written <- total
	}))
	defer ts.Close()
	_, err := NewClient(ts.URL, ts.Client()).Select(context.Background(), validReq)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("oversize response: %v, want a typed internal error", err)
	}
	if got := <-written; got >= stream {
		t.Fatalf("the peer wrote its whole %d-byte stream: the client read past its %d-byte cap", got, maxResponseBytes)
	}
}
