package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"twophase/internal/datahub"
	"twophase/internal/service"
	"twophase/internal/store"
)

// Typed, HTTP-mappable errors of the v1 contract. Every error the
// dispatcher or client returns wraps exactly one of these sentinels, so
// callers branch with errors.Is instead of string matching.
var (
	// ErrBadRequest marks a request the contract itself rejects: no
	// targets, an unknown strategy name, an unparsable body.
	ErrBadRequest = errors.New("api: bad request")
	// ErrUnknownTask marks a task family outside {"nlp", "cv"}.
	ErrUnknownTask = errors.New("api: unknown task")
	// ErrUnknownTarget marks a target dataset not in the task's catalog.
	ErrUnknownTarget = errors.New("api: unknown target")
	// ErrCanceled marks a request whose context was canceled or timed out
	// while the selection was in flight.
	ErrCanceled = errors.New("api: request canceled")
	// ErrSeedRejected marks a well-formed request whose seed override the
	// server's admission policy refuses — minting a new offline world is
	// a privilege, not a request parameter, on an open deployment.
	ErrSeedRejected = errors.New("api: seed rejected")
	// ErrUnavailable marks a request no backend could serve: the sharding
	// gateway exhausted every replica of the key's owner set (or none was
	// alive to begin with). Unlike the other sentinels it is transient —
	// clients may retry after backends recover.
	ErrUnavailable = errors.New("api: no backend available")
	// ErrRateLimited marks a request refused by the admission tier's
	// per-client rate limit (HTTP 429). Transient: the paired Retry-After
	// hint says when the bucket refills.
	ErrRateLimited = errors.New("api: rate limited")
	// ErrOverloaded marks a request shed because the admission queue was
	// full (HTTP 503). Transient: retry after the Retry-After hint.
	ErrOverloaded = errors.New("api: overloaded")
	// ErrUnknownArtifact marks an artifact-distribution request for a
	// kind/name this backend does not hold (or a backend with no store at
	// all). The fetching peer falls back to its next replica or a local
	// build; it is a routine miss, not a failure.
	ErrUnknownArtifact = errors.New("api: unknown artifact")
	// ErrInternal marks a failure the server could not attribute to the
	// request: a recovered handler panic, an injected fault, an unexpected
	// backend 500. It is still a *typed* refusal — the chaos invariant is
	// that every error a client sees satisfies errors.Is against exactly
	// one sentinel, and this is the sentinel of last resort.
	ErrInternal = errors.New("api: internal error")
)

// Error is the structured wire error of the v1.1 contract: a machine
// code, a message, and an optional retry hint. It unwraps to the code's
// sentinel, so errors.Is(err, api.ErrRateLimited) holds whether the error
// was minted in process or decoded off an HTTP ErrorResponse.
type Error struct {
	// Code is the wire code (CodeRateLimited, CodeOverloaded, ...).
	Code string
	// Message is the human-readable description.
	Message string
	// RetryAfter, when positive, is the server's hint for when a retry
	// may succeed. Rendered as retry_after_ms in the body and as the
	// Retry-After header (rounded up to whole seconds).
	RetryAfter time.Duration
}

// Error implements error.
func (e *Error) Error() string { return e.Message }

// Unwrap ties the structured error to its code's sentinel.
func (e *Error) Unwrap() error { return sentinelOf(e.Code) }

// Retryable reports whether a failed request may succeed on retry without
// any change to the request itself: backend unavailability, rate limiting
// and load shedding qualify; contract rejections and cancellations do
// not. The Go Client and the shard Router consult this single predicate
// instead of hard-coding status classes, so a new transient code is
// retryable everywhere at once.
func Retryable(err error) bool {
	row := rowOf(err)
	return row != nil && row.retryable
}

// retryAfter extracts the retry hint riding err, or 0 when it carries
// none. The hint survives the HTTP boundary via retry_after_ms.
func retryAfter(err error) time.Duration {
	var e *Error
	if errors.As(err, &e) {
		return e.RetryAfter
	}
	return 0
}

// statusClientClosedRequest is nginx's nonstandard 499 "client closed
// request", the conventional status for work abandoned by the caller.
const statusClientClosedRequest = 499

// classify maps lower-layer failures onto the contract's sentinels. An
// error that is already one of the sentinels passes through unchanged;
// anything unrecognized stays as-is and renders as an internal error.
func classify(err error) error {
	switch {
	case err == nil:
		return nil
	case rowOf(err) != nil:
		return err
	case errors.Is(err, store.ErrNotFound):
		return fmt.Errorf("%w: %v", ErrUnknownArtifact, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	case errors.Is(err, datahub.ErrUnknownTask):
		return fmt.Errorf("%w: %v", ErrUnknownTask, err)
	case errors.Is(err, service.ErrSeedRejected):
		return fmt.Errorf("%w: %v", ErrSeedRejected, err)
	case errors.Is(err, datahub.ErrUnknownDataset):
		return fmt.Errorf("%w: %v", ErrUnknownTarget, err)
	default:
		return err
	}
}

// HTTPStatus maps a contract error to its response status.
func HTTPStatus(err error) int {
	if err == nil {
		return http.StatusOK
	}
	if row := rowOf(err); row != nil {
		return row.status
	}
	return http.StatusInternalServerError
}

// Error codes of the wire format. The client reconstructs the matching
// sentinel from the code, so errors.Is holds across the HTTP boundary.
const (
	CodeBadRequest    = "bad_request"
	CodeUnknownTask   = "unknown_task"
	CodeUnknownTarget = "unknown_target"
	CodeSeedRejected  = "seed_rejected"
	CodeCanceled      = "canceled"
	CodeUnavailable   = "unavailable"
	CodeRateLimited   = "rate_limited"
	CodeOverloaded    = "overloaded"
	// CodeUnknownArtifact is the 404 of the artifact-distribution tier.
	CodeUnknownArtifact = "unknown_artifact"
	CodeInternal        = "internal"
)

// errorKind is one row of the error contract.
type errorKind struct {
	code      string
	sentinel  error
	status    int
	retryable bool
}

// vocabulary is the error contract, once: each wire code with its
// sentinel, its HTTP status and whether a retry of the unchanged request
// may succeed. Code, HTTPStatus, Retryable, sentinelOf and classify's
// pass-through all read it, so a new code is one row. Order is match
// order for an error that wraps more than one sentinel.
var vocabulary = []errorKind{
	{CodeBadRequest, ErrBadRequest, http.StatusBadRequest, false},
	{CodeUnknownTask, ErrUnknownTask, http.StatusNotFound, false},
	{CodeUnknownTarget, ErrUnknownTarget, http.StatusNotFound, false},
	{CodeSeedRejected, ErrSeedRejected, http.StatusForbidden, false},
	{CodeCanceled, ErrCanceled, statusClientClosedRequest, false},
	{CodeUnavailable, ErrUnavailable, http.StatusServiceUnavailable, true},
	{CodeRateLimited, ErrRateLimited, http.StatusTooManyRequests, true},
	{CodeOverloaded, ErrOverloaded, http.StatusServiceUnavailable, true},
	{CodeUnknownArtifact, ErrUnknownArtifact, http.StatusNotFound, false},
	{CodeInternal, ErrInternal, http.StatusInternalServerError, false},
}

// rowOf returns the first vocabulary row whose sentinel err wraps, or nil
// for an error outside the contract (which renders as internal).
func rowOf(err error) *errorKind {
	for i := range vocabulary {
		if errors.Is(err, vocabulary[i].sentinel) {
			return &vocabulary[i]
		}
	}
	return nil
}

// Code returns the wire code for a contract error.
func Code(err error) string {
	if row := rowOf(err); row != nil {
		return row.code
	}
	return CodeInternal
}

// errBadRequest wraps a validation message in ErrBadRequest.
func errBadRequest(msg string) error { return fmt.Errorf("%w: %s", ErrBadRequest, msg) }

// sentinelOf maps a wire code back to its package sentinel (nil for
// unknown codes, which have none).
func sentinelOf(code string) error {
	for _, row := range vocabulary {
		if row.code == code {
			return row.sentinel
		}
	}
	return nil
}
