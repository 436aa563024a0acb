package api

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestVocabularyRoundTrips walks the one error table: every row's code and
// sentinel map onto each other, a wrapped sentinel reads its own row back
// through Code, HTTPStatus, Retryable and classify, and the same error
// written by a server and decoded by responseError keeps its status, code
// and errors.Is identity across the HTTP boundary.
func TestVocabularyRoundTrips(t *testing.T) {
	var current error
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, current)
	}))
	defer ts.Close()

	seen := map[string]bool{}
	for _, row := range vocabulary {
		if seen[row.code] {
			t.Fatalf("code %q appears twice", row.code)
		}
		seen[row.code] = true
		if got := sentinelOf(row.code); got != row.sentinel {
			t.Fatalf("sentinelOf(%q) = %v, want %v", row.code, got, row.sentinel)
		}
		err := fmt.Errorf("%w: detail", row.sentinel)
		if Code(err) != row.code || HTTPStatus(err) != row.status || Retryable(err) != row.retryable || classify(err) != err {
			t.Fatalf("%s in process: code %q status %d retryable %v classify %v", row.code, Code(err), HTTPStatus(err), Retryable(err), classify(err))
		}

		current = err
		res, herr := http.Get(ts.URL)
		if herr != nil {
			t.Fatal(herr)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		wire := responseError(http.MethodGet, "/", res.StatusCode, body)
		if res.StatusCode != row.status || !errors.Is(wire, row.sentinel) || Code(wire) != row.code ||
			Retryable(wire) != row.retryable || wire.Error() != err.Error() {
			t.Fatalf("%s over HTTP: status %d, decoded %v (code %q)", row.code, res.StatusCode, wire, Code(wire))
		}
	}

	outside := errors.New("not in the contract")
	if Code(outside) != CodeInternal || HTTPStatus(outside) != http.StatusInternalServerError ||
		Retryable(outside) || sentinelOf("no_such_code") != nil || HTTPStatus(nil) != http.StatusOK {
		t.Fatalf("an error outside the vocabulary must read internal/500, never retryable")
	}
}
