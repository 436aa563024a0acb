// Package faultinject is the deterministic fault-injection layer of the
// serving stack: a seedable, schedule-driven injector with named injection
// sites threaded through the store (I/O errors, torn writes, fsync
// failure), the artifact fetch path (peer hangs, corrupted bodies), the
// gateway→backend transport (latency spikes, connection resets, 5xx
// bursts), the offline builder (slow and failing builds) and the HTTP
// handlers (panics).
//
// The injector is off by default with zero hot-path cost: every site is a
// single atomic pointer load that short-circuits on nil. A schedule is a
// compact text spec —
//
//	seed=7;store.write:torn:0.5@0.2#3;transport:hang:200ms@0.1;handler:panic#1
//
// semicolon-separated rules of the form site:action[:param][@prob][#max],
// where param is an action-specific duration or fraction, @prob is the
// per-hit fire probability (default 1), and #max caps the total fires so a
// schedule drains after a bounded amount of chaos. Fire decisions are a
// pure function of (schedule seed, rule, hit index), so two processes —
// or two runs of the same process — driven through the same schedule see
// the same fault sequence regardless of goroutine interleaving: the chaos
// harness replays a seed and gets the same storm.
//
// Serving binaries enable a schedule with -fault-schedule (or the
// TWOPHASE_FAULT_SCHEDULE environment variable), which is how the
// multi-process chaos harness drives real binaries through seeded faults.
package faultinject

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrInjected marks every failure the injector manufactures, so tests and
// logs can tell injected faults from real ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Injection sites. Each names one seam of the serving stack; the schedule
// grammar only accepts these, so a typoed site fails at parse time instead
// of silently never firing.
const (
	// SiteStoreWrite covers store artifact writes: action "err" fails the
	// write, "torn" writes a prefix of the payload to the temp file and
	// abandons it un-renamed — the on-disk shape of a writer killed
	// mid-write, which the startup sweep must quarantine.
	SiteStoreWrite = "store.write"
	// SiteStoreFsync fails the pre-rename fsync (action "err").
	SiteStoreFsync = "store.fsync"
	// SiteStoreRead fails store artifact reads with a transient I/O error
	// (action "err") — not a miss and not corruption, so the caller must
	// propagate it rather than rebuild.
	SiteStoreRead = "store.read"
	// SiteFetchRequest covers the start of one peer artifact fetch:
	// "hang" sleeps the param duration (a peer that accepts and stalls),
	// "err" is a connection reset before any byte arrives.
	SiteFetchRequest = "fetch.request"
	// SiteFetchBody covers a fetched artifact body: "corrupt" flips a
	// deterministic bit (the checksum gate must catch it), "err" is a
	// mid-body disconnect after the request succeeded.
	SiteFetchBody = "fetch.body"
	// SiteTransport covers gateway→backend round trips: "hang" delays the
	// request by the param (a latency spike — the request still proceeds),
	// "reset" fails it like a closed connection, "http500" synthesizes an
	// untyped 500 response body.
	SiteTransport = "transport"
	// SiteBuild covers the offline world build: "err" fails it, "hang"
	// stalls it by the param duration before it runs.
	SiteBuild = "build"
	// SiteHandler covers the HTTP select handler: "panic" panics inside
	// the handler, which the recovery middleware must convert into a typed
	// internal 500 while the process keeps serving.
	SiteHandler = "handler"
)

// Action is what a fired fault does at its site.
type Action uint8

const (
	// ActErr fails the operation with an ErrInjected-wrapped error.
	ActErr Action = iota + 1
	// ActTorn abandons a partially-written temp file (store.write only).
	ActTorn
	// ActHang sleeps the rule's duration before the operation proceeds.
	ActHang
	// ActCorrupt flips a deterministic bit in the payload (fetch.body).
	ActCorrupt
	// ActReset fails a transport round trip like a closed connection.
	ActReset
	// ActHTTP500 synthesizes an untyped HTTP 500 response (transport).
	ActHTTP500
	// ActPanic panics at the site (handler).
	ActPanic
)

// String renders the action the way the schedule grammar spells it.
func (a Action) String() string {
	switch a {
	case ActErr:
		return "err"
	case ActTorn:
		return "torn"
	case ActHang:
		return "hang"
	case ActCorrupt:
		return "corrupt"
	case ActReset:
		return "reset"
	case ActHTTP500:
		return "http500"
	case ActPanic:
		return "panic"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// actionsBySite is the grammar's compatibility table: which actions make
// sense at which site.
var actionsBySite = map[string][]Action{
	SiteStoreWrite:   {ActErr, ActTorn},
	SiteStoreFsync:   {ActErr},
	SiteStoreRead:    {ActErr},
	SiteFetchRequest: {ActHang, ActErr},
	SiteFetchBody:    {ActCorrupt, ActErr, ActHang},
	SiteTransport:    {ActHang, ActReset, ActHTTP500},
	SiteBuild:        {ActErr, ActHang},
	SiteHandler:      {ActPanic},
}

// rule is one parsed schedule entry with its live counters.
type rule struct {
	site   string
	action Action
	dur    time.Duration // ActHang delay
	frac   float64       // ActTorn prefix fraction (0,1]
	prob   float64       // per-hit fire probability (0,1]
	max    int64         // fire cap; 0 = unlimited

	hits  atomic.Int64
	fires atomic.Int64
}

// take claims one fire under the rule's #max cap. It is a CAS loop, not
// an add-then-check: fires counts faults delivered, so hits racing for the
// last slot must leave it at the cap, never above.
func (r *rule) take() bool {
	for {
		n := r.fires.Load()
		if r.max > 0 && n >= r.max {
			return false
		}
		if r.fires.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Fault describes one fired fault at a site. The zero value is never
// returned; a nil *Fault means the site did not fire.
type Fault struct {
	Site   string
	Action Action
	// Dur is the hang duration for ActHang.
	Dur time.Duration
	// N is the rule-local hit index that fired, for log correlation
	// across runs of the same schedule.
	N int64

	frac float64
	seed uint64
}

// Err manufactures the fault's error, wrapping ErrInjected.
func (f *Fault) Err() error {
	return fmt.Errorf("%w: %s %s n=%d", ErrInjected, f.Site, f.Action, f.N)
}

// Sleep blocks for the fault's duration or until ctx-like done closes
// (pass nil for an unconditional sleep).
func (f *Fault) Sleep(done <-chan struct{}) {
	if f.Dur <= 0 {
		return
	}
	t := time.NewTimer(f.Dur)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}

// Prefix reports how many leading bytes of an n-byte payload a torn write
// should land: at least one byte short of complete, so the file can never
// accidentally be whole.
func (f *Fault) Prefix(n int) int {
	frac := f.frac
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	p := int(float64(n) * frac)
	if p >= n {
		p = n - 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// Corrupt returns a copy of data with one deterministically-chosen bit
// flipped (position derived from the schedule seed and hit index, so the
// same schedule corrupts the same way every run). Empty data returns
// as-is.
func (f *Fault) Corrupt(data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	x := splitmix64(f.seed ^ uint64(f.N)*0x9E3779B97F4A7C15 ^ fnv64("corrupt"))
	pos := int(x % uint64(len(out)))
	out[pos] ^= 1 << ((x >> 32) % 8)
	return out
}

// Injector is a parsed, armed schedule. One Injector is active per process
// at most; sites consult it through On.
type Injector struct {
	seed  uint64
	rules []*rule
	bySit map[string][]*rule
}

// active is the process-wide injector; nil means injection is off and
// every On call is one atomic load.
var active atomic.Pointer[Injector]

// Activate arms an injector process-wide (nil disarms). Tests pair it
// with Reset.
func Activate(inj *Injector) { active.Store(inj) }

// Reset disarms injection; defer it from every test that Activates.
func Reset() { active.Store(nil) }

// Enable parses and arms the given schedule spec; an empty spec falls
// back to the TWOPHASE_FAULT_SCHEDULE environment variable, and an empty
// result leaves injection off. Serving binaries call it once at startup.
func Enable(spec string) error {
	if spec == "" {
		spec = os.Getenv("TWOPHASE_FAULT_SCHEDULE")
	}
	if spec == "" {
		return nil
	}
	inj, err := Parse(spec)
	if err != nil {
		return err
	}
	Activate(inj)
	slog.Info("faultinject.armed", slog.String("schedule", spec))
	return nil
}

// On consults the active schedule at a site, returning the fired fault or
// nil. When multiple rules target one site, each advances its own hit
// counter and the first that fires wins, in schedule order.
func On(site string) *Fault {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	return inj.eval(site)
}

func (inj *Injector) eval(site string) *Fault {
	var fired *Fault
	for _, r := range inj.bySit[site] {
		n := r.hits.Add(1) - 1
		if fired != nil {
			continue // later rules still count the hit
		}
		if r.prob < 1 {
			// The decision is a pure function of (seed, rule, hit index):
			// the same schedule fires on the same indices every run.
			x := splitmix64(inj.seed ^ fnv64(r.site+":"+r.action.String()) ^ uint64(n)*0x9E3779B97F4A7C15)
			if float64(x>>11)/(1<<53) >= r.prob {
				continue
			}
		}
		if !r.take() {
			continue // the #max budget is spent
		}
		slog.Info("faultinject.fire", slog.String("site", r.site), slog.String("action", r.action.String()), slog.Int64("n", n))
		fired = &Fault{Site: r.site, Action: r.action, Dur: r.dur, N: n, frac: r.frac, seed: inj.seed}
	}
	return fired
}

// SiteStats is one rule's hit/fire counters in a Snapshot.
type SiteStats struct {
	Hits  int64
	Fires int64
}

// snapshot reports per-rule counters keyed "site:action", for /v1/stats
// and chaos-harness assertions. Nil when injection is off.
func snapshot() map[string]SiteStats {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	out := make(map[string]SiteStats, len(inj.rules))
	for _, r := range inj.rules {
		key := r.site + ":" + r.action.String()
		s := out[key]
		s.Hits += r.hits.Load()
		s.Fires += r.fires.Load()
		out[key] = s
	}
	return out
}

// Fires sums fired faults per "site:action" — the compact form stats
// endpoints embed. Nil when injection is off.
func Fires() map[string]int64 {
	snap := snapshot()
	if snap == nil {
		return nil
	}
	out := make(map[string]int64, len(snap))
	for k, s := range snap {
		out[k] = s.Fires
	}
	return out
}

// Parse compiles a schedule spec. The grammar:
//
//	spec  = item (";" item)*
//	item  = "seed=" uint | rule
//	rule  = site ":" action [":" param] ["@" prob] ["#" max]
//
// param is a Go duration for hang, a (0,1) fraction for torn. Unknown
// sites, incompatible actions and malformed numbers are errors.
func Parse(spec string) (*Injector, error) {
	inj := &Injector{bySit: make(map[string][]*rule)}
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if after, ok := strings.CutPrefix(item, "seed="); ok {
			n, err := strconv.ParseUint(after, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", after, err)
			}
			inj.seed = n // 0 is a valid (and the default) schedule seed
			continue
		}
		r, err := parseRule(item)
		if err != nil {
			return nil, err
		}
		inj.rules = append(inj.rules, r)
		inj.bySit[r.site] = append(inj.bySit[r.site], r)
	}
	if len(inj.rules) == 0 {
		return nil, fmt.Errorf("faultinject: schedule %q has no rules", spec)
	}
	return inj, nil
}

func parseRule(item string) (*rule, error) {
	r := &rule{prob: 1}
	// Peel the #max and @prob suffixes off the right, then split the
	// remaining site:action[:param] on colons.
	if body, max, ok := cutLast(item, "#"); ok {
		n, err := strconv.ParseInt(max, 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("faultinject: bad fire cap in %q", item)
		}
		r.max = n
		item = body
	}
	if body, prob, ok := cutLast(item, "@"); ok {
		p, err := strconv.ParseFloat(prob, 64)
		if err != nil || !(p > 0 && p <= 1) { // a NaN fails both, so it is refused
			return nil, fmt.Errorf("faultinject: bad probability in %q (want (0,1])", item)
		}
		r.prob = p
		item = body
	}
	parts := strings.SplitN(item, ":", 3)
	if len(parts) < 2 {
		return nil, fmt.Errorf("faultinject: rule %q is not site:action[:param]", item)
	}
	r.site = parts[0]
	allowed, ok := actionsBySite[r.site]
	if !ok {
		return nil, fmt.Errorf("faultinject: unknown site %q (known: %s)", r.site, strings.Join(knownSites(), ", "))
	}
	act, err := parseAction(parts[1])
	if err != nil {
		return nil, err
	}
	if !containsAction(allowed, act) {
		return nil, fmt.Errorf("faultinject: action %q is not valid at site %q", parts[1], r.site)
	}
	r.action = act
	if len(parts) == 3 {
		switch act {
		case ActHang:
			d, err := time.ParseDuration(parts[2])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("faultinject: bad hang duration in %q", item)
			}
			r.dur = d
		case ActTorn:
			f, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || !(f > 0 && f < 1) {
				return nil, fmt.Errorf("faultinject: bad torn fraction in %q (want (0,1))", item)
			}
			r.frac = f
		default:
			return nil, fmt.Errorf("faultinject: action %q takes no parameter (%q)", parts[1], item)
		}
	}
	if act == ActHang && r.dur <= 0 {
		return nil, fmt.Errorf("faultinject: hang rule %q needs a duration parameter", item)
	}
	return r, nil
}

func parseAction(s string) (Action, error) {
	switch s {
	case "err":
		return ActErr, nil
	case "torn":
		return ActTorn, nil
	case "hang":
		return ActHang, nil
	case "corrupt":
		return ActCorrupt, nil
	case "reset":
		return ActReset, nil
	case "http500":
		return ActHTTP500, nil
	case "panic":
		return ActPanic, nil
	default:
		return 0, fmt.Errorf("faultinject: unknown action %q", s)
	}
}

func containsAction(s []Action, a Action) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}

func knownSites() []string {
	out := make([]string, 0, len(actionsBySite))
	for s := range actionsBySite {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// cutLast splits s on the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// splitmix64 is the standard 64-bit finalizer-style mixer; cheap, and its
// output is well-distributed even for sequential inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fnv64 is FNV-1a over a string.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
