// Package admission is the serving tier's backpressure layer: per-client
// token-bucket rate limiting and a bounded priority queue with
// load-shedding over a concurrency limit. It is transport-free — the API
// handler and the gateway mount it and map its refusals onto the wire's
// rate_limited/overloaded errors.
package admission

import (
	"sync"
	"time"
)

// TokenBucket is a classic token-bucket rate limiter: capacity `burst`
// tokens, refilled at `rate` tokens per second. It is robust to clock
// skew: time moving backwards neither refills the bucket nor drives the
// token count negative — the bucket adopts the new clock and resumes
// refilling from there.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time // last refill instant (zero until first Allow)
}

// newTokenBucket creates a full bucket. rate must be positive; a burst
// below 1 is raised to 1 so a full bucket always admits at least one
// request.
func newTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Allow takes one token at the given instant. When the bucket is empty it
// refuses and reports how long until one token accumulates — the
// Retry-After hint.
func (b *TokenBucket) Allow(now time.Time) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		if elapsed := now.Sub(b.last); elapsed > 0 {
			b.tokens += float64(elapsed.Seconds() * b.rate)
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
		}
		// elapsed <= 0 means the clock jumped backwards (or stood still):
		// no refill, and below we adopt `now` so a later forward-moving
		// clock refills from the new timeline instead of waiting to catch
		// up with the old one.
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	missing := 1 - b.tokens
	return false, time.Duration(missing / b.rate * float64(time.Second))
}
