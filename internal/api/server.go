package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"twophase/internal/admission"
	"twophase/internal/datahub"
	"twophase/internal/faultinject"
)

// maxBodyBytes bounds a /v1/select request body; selection requests are
// small JSON documents, so anything bigger is a client bug.
const maxBodyBytes = 1 << 20

// instanceHeader is the response header naming the serving process. The
// sharding gateway reads it off backend responses to assert and report
// routing; multi-process tests assert routing stability through it.
const instanceHeader = "X-Instance-Id"

// Admission request headers. ClientIDHeader names the client for
// per-client rate limiting (falls back to the remote address);
// PriorityHeader is an integer rank for queue ordering and shedding —
// higher survives longer (missing or unparsable means 0).
const (
	ClientIDHeader = "X-Client-Id"
	PriorityHeader = "X-Priority"
)

// HandlerOptions tunes NewHandlerWith.
type HandlerOptions struct {
	// Ready gates /v1/healthz: until it reports true (e.g. while
	// configured framework warmup is still building), healthz answers
	// 503 {"status":"warming"} so load balancers hold traffic until the
	// first request can hit a resident framework. nil means always
	// ready. The selection endpoints are not gated — a request that
	// arrives early simply waits on the build.
	Ready func() bool
	// Instance, when non-empty, is stamped on every response as the
	// X-Instance-Id header and echoed in the healthz body.
	Instance string
	// Admission, when non-nil, gates /v1/select: refused requests render
	// as typed rate_limited (429) / overloaded (503) errors carrying
	// Retry-After, and the controller's snapshot rides /v1/stats. The
	// other endpoints are never gated — health and stats must answer
	// precisely when the service is saturated.
	Admission *admission.Controller
	// Artifacts, when non-nil, mounts GET /v1/artifacts/{kind}/{name}:
	// the binary-artifact distribution endpoint ring peers use to fetch a
	// world instead of rebuilding it. Responses are raw artifact bytes
	// (the codec's header carries its own checksums).
	Artifacts ArtifactSource
}

// ArtifactSource serves verified binary artifact documents by kind and
// store key. *store.Store satisfies it; an absent artifact must surface
// as store.ErrNotFound so the handler can answer a typed 404.
type ArtifactSource interface {
	OpenArtifact(kind, name string) ([]byte, error)
}

// NewHandlerWith mounts the v1 contract on an http.Handler:
//
//	POST /v1/select                  single or batch selection
//	GET  /v1/tasks/{task}/targets    target catalog of a task family
//	GET  /v1/healthz                 liveness + readiness
//	GET  /v1/stats                   builds, cache, cumulative cost
//
// Every response body is JSON; failures carry ErrorResponse with a
// machine-readable code and the status from HTTPStatus. The zero
// HandlerOptions serve exactly that; see its fields for the optional
// readiness gate, admission control and artifact endpoint.
func NewHandlerWith(a API, opts HandlerOptions) http.Handler {
	ready := opts.Ready
	var panics atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/select", func(w http.ResponseWriter, r *http.Request) {
		if f := faultinject.On(faultinject.SiteHandler); f != nil && f.Action == faultinject.ActPanic {
			panic(fmt.Sprintf("faultinject: %s panic n=%d", f.Site, f.N))
		}
		if opts.Admission != nil {
			release, retry, err := opts.Admission.Admit(r.Context(), clientID(r), priorityOf(r))
			if err != nil {
				writeError(w, admissionError(err, retry))
				return
			}
			defer release()
		}
		var req SelectRequest
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			writeError(w, errBadRequest(fmt.Sprintf("read body: %v", err)))
			return
		}
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, errBadRequest(fmt.Sprintf("decode body: %v", err)))
			return
		}
		// Reject malformed requests at the transport edge, before the API
		// behind it (a Dispatcher, or a Router about to spend a hop).
		if err := req.Validate(); err != nil {
			writeError(w, err)
			return
		}
		resp, err := a.Select(r.Context(), &req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	// The catalog is a static registry table: listing builds, evicts and
	// forwards nothing, so a gateway answers it with every backend down.
	mux.HandleFunc("GET /v1/tasks/{task}/targets", func(w http.ResponseWriter, r *http.Request) {
		task := r.PathValue("task")
		names, err := datahub.TargetNames(task)
		if err != nil {
			writeError(w, classify(err))
			return
		}
		writeJSON(w, http.StatusOK, TargetsResponse{APIVersion: Version, Task: task, Targets: names})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if ready != nil && !ready() {
			writeJSON(w, http.StatusServiceUnavailable, Health{Status: "warming", Instance: opts.Instance})
			return
		}
		writeJSON(w, http.StatusOK, Health{Status: "ok", Instance: opts.Instance})
	})
	if opts.Artifacts != nil {
		mux.HandleFunc("GET /v1/artifacts/{kind}/{name}", func(w http.ResponseWriter, r *http.Request) {
			kind, name := r.PathValue("kind"), r.PathValue("name")
			data, err := opts.Artifacts.OpenArtifact(kind, name)
			if err != nil {
				writeError(w, classify(err))
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(data)))
			_, _ = w.Write(data)
		})
	}
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		resp, err := a.Stats(r.Context())
		if err != nil {
			writeError(w, err)
			return
		}
		// Panics recovered by this process's middleware ride the stats
		// document on top of whatever the API reports (a gateway already
		// sums its backends' counters).
		resp.Panics += panics.Load()
		if fires := faultinject.Fires(); fires != nil {
			resp.FaultFires = fires
		}
		if opts.Admission != nil {
			st := opts.Admission.Stats()
			resp.Admission = &st
		}
		writeJSON(w, http.StatusOK, resp)
	})
	handler := http.Handler(mux)
	if opts.Instance != "" {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(instanceHeader, opts.Instance)
			mux.ServeHTTP(w, r)
		})
	}
	return recoverPanics(handler, &panics)
}

// recoverPanics is the outermost middleware on every mounted handler: a
// panic below it becomes a typed internal 500 (never a torn connection or
// an untyped error page) and the process keeps serving. The stack is
// logged and the count rides /v1/stats. http.ErrAbortHandler re-panics —
// it is net/http's sanctioned way to abort a response mid-write.
func recoverPanics(next http.Handler, panics *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			panics.Add(1)
			slog.Error("api.panic", slog.String("path", r.Method+" "+r.URL.Path),
				slog.Any("err", rec), slog.String("stack", string(debug.Stack())))
			// If the handler already wrote a status line this WriteHeader
			// is a no-op and the client sees a truncated body — the best
			// that can be done once bytes are on the wire.
			writeError(w, &Error{Code: CodeInternal,
				Message: fmt.Sprintf("internal error: recovered panic serving %s", r.URL.Path)})
		}()
		next.ServeHTTP(w, r)
	})
}

// clientID names the requester for per-client rate limiting: the
// X-Client-Id header when present, else the remote host (every anonymous
// connection from one machine shares a bucket).
func clientID(r *http.Request) string {
	if id := r.Header.Get(ClientIDHeader); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// priorityOf parses the X-Priority header (missing or malformed = 0).
func priorityOf(r *http.Request) int {
	p, err := strconv.Atoi(r.Header.Get(PriorityHeader))
	if err != nil {
		return 0
	}
	return p
}

// admissionError maps an admission refusal onto the wire contract:
// rate_limited → 429, overloaded → 503, both carrying the controller's
// Retry-After hint; a context error stays a cancellation.
func admissionError(err error, retry time.Duration) error {
	switch {
	case errors.Is(err, admission.ErrRateLimited):
		return &Error{Code: CodeRateLimited, Message: err.Error(), RetryAfter: retry}
	case errors.Is(err, admission.ErrShed):
		return &Error{Code: CodeOverloaded, Message: err.Error(), RetryAfter: retry}
	default:
		return classify(err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already written; an encode failure here can only
	// be a broken connection, which the client sees anyway.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	resp := ErrorResponse{Error: err.Error(), Code: Code(err)}
	if ra := retryAfter(err); ra > 0 {
		resp.RetryAfterMS = ra.Milliseconds()
		// Retry-After speaks whole seconds; round up so a client honoring
		// only the header never retries before the hint.
		w.Header().Set("Retry-After", strconv.FormatInt(int64((ra+time.Second-1)/time.Second), 10))
	}
	writeJSON(w, HTTPStatus(err), resp)
}
