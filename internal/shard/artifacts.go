package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"twophase/internal/api"
	"twophase/internal/artifact"
	"twophase/internal/breaker"
	"twophase/internal/faultinject"
	"twophase/internal/lifecycle"
	"twophase/internal/service"
)

// fetchAttemptTimeout bounds one artifact fetch from one ring peer. The
// fetcher runs under the lifecycle's uncancelable build context, so it
// must carry its own deadline or a wedged peer would hang the build
// forever instead of falling through to the next owner.
const fetchAttemptTimeout = 10 * time.Second

// OwnedKeys filters a warm list down to the worlds this backend owns on
// the ring: the keys whose replica owner set (of size replicas) includes
// self. With every backend warming only its owned keys, fleet cold start
// builds each world replicas times total instead of once per backend —
// the rest of the fleet fetches the finished artifacts over the ring.
// A nil ring (single-node deployment) owns everything.
func OwnedKeys(keys []lifecycle.Key, ring *Ring, self string, replicas int) []lifecycle.Key {
	if ring == nil {
		return keys
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	var owned []lifecycle.Key
	for _, k := range keys {
		for _, owner := range ring.Owners(RouteKey(k.Task, k.Seed), replicas) {
			if owner == self {
				owned = append(owned, k)
				break
			}
		}
	}
	return owned
}

// NewArtifactFetcher returns a service.ArtifactFetcher that resolves a
// world's ring owners and fetches the named artifact document from the
// first peer that has it. The store key ("task-seedN") IS the routing
// key, so artifact locality follows request routing: the owners tried
// here are exactly the backends whose ring-aware warmup built the world.
// Self is skipped (a local miss is why the fetcher ran) and every
// document is checksum-verified before it is trusted. The walk is the
// router's (see attempter): each attempt carries its own timeout and a
// per-peer circuit breaker cuts off a hanging or corrupt-serving peer so
// repeated builds don't each re-pay its attempt timeout; a typed "unknown
// artifact" miss is a healthy answer and never trips it. An error means
// no live owner had a valid copy; the caller falls back to a local build.
func NewArtifactFetcher(ring *Ring, self string, replicas int, hc *http.Client) func(ctx context.Context, kind, name string) ([]byte, error) {
	return newArtifactFetcher(ring, self, replicas, hc, fetchAttemptTimeout)
}

func newArtifactFetcher(ring *Ring, self string, replicas int, hc *http.Client, timeout time.Duration) func(ctx context.Context, kind, name string) ([]byte, error) {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	if hc == nil {
		hc = &http.Client{}
	}
	clients := make(map[string]*api.Client, len(ring.Nodes()))
	for _, node := range ring.Nodes() {
		clients[node] = api.NewClient(node, hc)
	}
	a := &attempter{
		breakers:  breaker.NewSet(breaker.Options{}),
		timeout:   timeout,
		classify:  classifyFetched,
		exhausted: fetchExhausted,
		counters:  newPeerCounters(ring.Nodes()),
	}
	return func(ctx context.Context, kind, name string) ([]byte, error) {
		var peers []string
		for _, owner := range ring.Owners(name, replicas) {
			if owner != self {
				peers = append(peers, owner)
			}
		}
		data, _, err := walk(ctx, a, peers, func(ctx context.Context, node string) ([]byte, error) {
			data, err := fetchOne(ctx, clients[node], kind, name)
			if err == nil {
				// A peer serving bytes that fail their own checksum is
				// broken, not just missing the key.
				_, err = artifact.Verify(data)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", node, err)
			}
			return data, nil
		})
		if err != nil {
			return nil, fmt.Errorf("shard: fetch %s/%s: %w", kind, name, err)
		}
		return data, nil
	}
}

// classifyFetched is the fetcher's ruling on a failed attempt: a typed
// miss is a healthy peer answering "I don't have it"; only real failures
// (hangs, resets, corrupt bytes) count against the circuit. Nothing stops
// the walk — any other owner may still hold a valid copy.
func classifyFetched(err error) verdict {
	if errors.Is(err, api.ErrUnknownArtifact) {
		return next
	}
	return nextAndCharge
}

// fetchExhausted reports why no owner produced the document: the last
// peer's failure, every circuit open, or no peer to ask at all (the typed
// ErrNoPeers lets the service build without logging a distribution
// failure).
func fetchExhausted(tried, open int, last error) error {
	switch {
	case tried > 0:
		return last
	case open > 0:
		return fmt.Errorf("%w: artifact fetch circuit open on all %d peers", api.ErrUnavailable, open)
	default:
		return service.ErrNoPeers
	}
}

// fetchOne performs one fetch attempt against one peer under the walk's
// attempt context, applying the fetch.request and fetch.body fault sites:
// a request fault hangs or fails the attempt before any byte moves; a
// body fault corrupts the received document (the checksum gate must catch
// it), stalls it, or drops it mid-transfer after the request itself
// succeeded. A hang that outlives the attempt is the walk's to report.
func fetchOne(ctx context.Context, c *api.Client, kind, name string) ([]byte, error) {
	if f := faultinject.On(faultinject.SiteFetchRequest); f != nil {
		if f.Action != faultinject.ActHang {
			return nil, fmt.Errorf("shard: fetch request: %w", f.Err())
		}
		f.Sleep(ctx.Done())
	}
	data, err := c.FetchArtifact(ctx, kind, name)
	if err != nil {
		return nil, err
	}
	if f := faultinject.On(faultinject.SiteFetchBody); f != nil {
		switch f.Action {
		case faultinject.ActCorrupt:
			data = f.Corrupt(data)
		case faultinject.ActHang:
			f.Sleep(ctx.Done())
		default:
			return nil, fmt.Errorf("shard: fetch body: %w: disconnected after %d bytes", f.Err(), f.Prefix(len(data)))
		}
	}
	return data, nil
}
