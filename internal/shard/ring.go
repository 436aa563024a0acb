// Package shard is the multi-node serving tier: a consistent-hash ring
// that assigns each (task, seed) world to a stable owner set of backends,
// one health record per backend (Membership: probes and failed requests
// move the same state machine), and a routing gateway that scatter-gathers
// selection batches across the owners with automatic failover.
//
// The two-phase economics make sharding by world the right cut: the
// offline build is the expensive part and is cached per (task, seed), so
// routing every request for one world to the same small owner set keeps
// the fleet-wide cache hit rate flat as backends are added. Selections
// are deterministic in the world, so any replica serves bit-identical
// reports — failover is invisible to clients.
//
// Everything that asks a peer and may have to ask another — the router's
// select and targets forwarding, the backends' artifact fetcher — goes
// through one attempt loop (walk, in attempt.go): candidates in order,
// health gate, per-attempt timeout, and a per-owner classifier that
// rules stop / next / next-and-charge on each failure.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"twophase/internal/lifecycle"
)

// DefaultVNodes is the virtual-node count per backend when Ring callers
// leave it unset. More vnodes smooth the key distribution at the price of
// a larger ring table; 64 keeps the imbalance under a few percent for
// small fleets.
const DefaultVNodes = 64

// RouteKey names the routing key of one framework world. It is exactly
// the artifact store's key for the same world, so the node that owns a
// key also owns its persisted artifacts' cache locality.
func RouteKey(task string, seed uint64) string {
	return lifecycle.Key{Task: task, Seed: seed}.String()
}

// Ring is an immutable consistent-hash ring over a fixed backend set.
// Membership changes (a backend going down) do not rebuild the ring:
// routing skips dead owners at lookup time, so a recovered backend gets
// its exact key range back — which is the property that preserves cache
// affinity across a bounce.
type Ring struct {
	vnodes int
	nodes  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// ParseBackends splits and sanity-checks a -backends flag value into ring
// node names. The gateway and every backend call this one function, so
// the rings they build from the same flag agree node for node.
func ParseBackends(spec string) ([]string, error) {
	var out []string
	for _, b := range strings.Split(spec, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		if !strings.HasPrefix(b, "http://") && !strings.HasPrefix(b, "https://") {
			return nil, fmt.Errorf("backend %q is not an http(s) URL", b)
		}
		out = append(out, strings.TrimRight(b, "/"))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-backends is required (comma-separated base URLs)")
	}
	return out, nil
}

// NewRing builds a ring with vnodes virtual points per node (0 means
// DefaultVNodes). Node names must be non-empty and distinct.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		vnodes: vnodes,
		nodes:  append([]string(nil), nodes...),
		points: make([]ringPoint, 0, len(nodes)*vnodes),
	}
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("shard: empty node name")
		}
		if seen[n] {
			return nil, fmt.Errorf("shard: duplicate node %q", n)
		}
		seen[n] = true
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(n + "#" + strconv.Itoa(i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Deterministic tie-break so every process orders an (absurdly
		// unlikely) hash collision identically.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Nodes returns the ring's node set in construction order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// VNodes returns the per-node virtual point count.
func (r *Ring) VNodes() int { return r.vnodes }

// Owners returns the first n distinct nodes clockwise from the key's hash
// — the key's replica set in priority order. n is clamped to the node
// count. The walk is a pure function of (key, ring), so every gateway
// process computes the same owner list.
func (r *Ring) Owners(key string, n int) []string {
	if n <= 0 {
		n = 1
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			owners = append(owners, p.node)
		}
	}
	return owners
}

// Owner returns the key's primary owner.
func (r *Ring) Owner(key string) string { return r.Owners(key, 1)[0] }

// hash64 is FNV-1a with a splitmix64 finalizer: fast, dependency-free
// and — critically — identical across processes and restarts, unlike
// hash/maphash's per-process seed. Raw FNV-1a distributes the short,
// near-identical vnode labels ("node#0", "node#1", …) poorly around the
// ring; the finalizer's avalanche evens the arc lengths out.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
