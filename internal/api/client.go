package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Client is the HTTP implementation of the API contract. Errors decoded
// from ErrorResponse bodies are rebuilt around the package sentinels, so
// errors.Is(err, api.ErrUnknownTarget) holds across the wire exactly as it
// does in process.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient points a client at a server base URL (e.g.
// "http://127.0.0.1:8080"). A nil httpClient uses http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// Select implements API. The request is validated locally with the same
// gate the server applies, so a malformed request fails fast without a
// round trip — and fails identically to the in-process path.
func (c *Client) Select(ctx context.Context, req *SelectRequest) (*SelectResponse, error) {
	if req == nil {
		return nil, errBadRequest("nil request")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("api: marshal request: %w", err)
	}
	var resp SelectResponse
	if err := c.do(ctx, http.MethodPost, "/v1/select", bytes.NewReader(body), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats implements API.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var resp Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// maxArtifactBytes caps how much of an artifact response body
// FetchArtifact will buffer. A misbehaving peer must not be able to
// balloon the fetching backend's memory before the codec's checksum
// verification ever sees the bytes; real artifacts at production sizes
// are tens of megabytes, so 1 GiB is generous headroom.
const maxArtifactBytes = 1 << 30

// FetchArtifact downloads one binary artifact document from the
// server's /v1/artifacts endpoint. kind is the store kind ("matrices",
// "recalls"); name is the store key (e.g. "nlp-seed42"). Bodies larger
// than maxArtifactBytes fail the fetch so the ring can fall through to
// the next owner. The returned bytes are the verbatim codec document —
// the caller verifies the embedded checksums before trusting them.
func (c *Client) FetchArtifact(ctx context.Context, kind, name string) ([]byte, error) {
	path := "/v1/artifacts/" + url.PathEscape(kind) + "/" + url.PathEscape(name)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("api: build request: %w", err)
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return nil, classify(err)
	}
	defer res.Body.Close()
	if res.ContentLength > maxArtifactBytes {
		return nil, fmt.Errorf("api: artifact %s/%s: %d bytes exceeds cap %d", kind, name, res.ContentLength, maxArtifactBytes)
	}
	body, err := io.ReadAll(io.LimitReader(res.Body, maxArtifactBytes+1))
	if err != nil {
		return nil, fmt.Errorf("api: read artifact: %w", err)
	}
	if len(body) > maxArtifactBytes {
		return nil, fmt.Errorf("api: artifact %s/%s exceeds cap %d bytes", kind, name, maxArtifactBytes)
	}
	if res.StatusCode != http.StatusOK {
		return nil, responseError(http.MethodGet, path, res.StatusCode, body)
	}
	return body, nil
}

// Health checks the server's liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.Healthz(ctx)
	return err
}

// Healthz fetches the server's health document, including its instance
// id. An unready server (503 "warming") is an error.
func (c *Client) Healthz(ctx context.Context) (*Health, error) {
	var resp Health
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// instanceCaptureKey carries the capture destination of
// WithInstanceCapture through a request context.
type instanceCaptureKey struct{}

// WithInstanceCapture makes client calls under the returned context
// record each response's X-Instance-Id header into *dst. The sharding
// gateway uses it to learn which backend served a forwarded request; dst
// must not be shared across concurrent calls.
func WithInstanceCapture(ctx context.Context, dst *string) context.Context {
	return context.WithValue(ctx, instanceCaptureKey{}, dst)
}

// responseError turns a non-200 response into the contract's typed error:
// a well-formed ErrorResponse rebuilds its code's sentinel, and anything
// else (a crashed proxy's HTML page, an injected raw 500, a code this
// client does not know) is still a *typed* internal error — the contract
// promises every refusal satisfies errors.Is.
func responseError(method, path string, status int, body []byte) error {
	var e ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" && sentinelOf(e.Code) != nil {
		return &Error{Code: e.Code, Message: e.Error, RetryAfter: time.Duration(e.RetryAfterMS) * time.Millisecond}
	}
	return &Error{Code: CodeInternal,
		Message: fmt.Sprintf("api: %s %s: unexpected status %d: %s", method, path, status, strings.TrimSpace(string(body)))}
}

// maxResponseBytes caps what do buffers, as maxArtifactBytes does for an
// artifact: the gateway forwards selects and scrapes stats through here. It
// fits the largest answer to a maxBodyBytes request: at most 1 MiB/4
// targets (`"x",` each), each result under 1 KiB plus 12 bytes per name
// byte (named twice, HTML-escaped to 6 bytes a byte) — 268 MiB at most.
// Past the cap the answer is a typed internal error: the router fails over.
var maxResponseBytes int64 = 512 << 20

func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("api: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return classify(err)
	}
	defer res.Body.Close()
	if dst, ok := ctx.Value(instanceCaptureKey{}).(*string); ok {
		*dst = res.Header.Get(instanceHeader)
	}
	data, err := io.ReadAll(io.LimitReader(res.Body, maxResponseBytes+1))
	if err != nil {
		return fmt.Errorf("api: read response: %w", err)
	}
	if int64(len(data)) > maxResponseBytes {
		return &Error{Code: CodeInternal,
			Message: fmt.Sprintf("api: %s %s: response exceeds cap %d bytes", method, path, maxResponseBytes)}
	}
	if res.StatusCode != http.StatusOK {
		return responseError(method, path, res.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("api: decode response: %w", err)
	}
	return nil
}
