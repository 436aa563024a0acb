package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"twophase/internal/api"
	"twophase/internal/breaker"
	"twophase/internal/service"
)

// outcome scripts what one candidate's call does.
type outcome int

const (
	doOK              outcome = iota // answers at once
	doRetryable                      // fails at once with a typed unavailability
	doTerminal                       // fails at once with a contract rejection
	doUnknownArtifact                // answers "I don't hold it"
	doCorrupt                        // fails with an untyped error (a bad checksum)
	doHang                           // blocks until its context dies
	doLateOK                         // blocks until its context dies, then "succeeds"
	doCallerCancels                  // the caller gives up while this call is in flight
)

// TestWalk drives the fleet's one attempt loop over scripted per-candidate
// outcomes under both owners' policies (router: retryable →
// next-and-charge, else stop; fetcher: unknown artifact → next, everything
// else → next-and-charge). Each case pins the call order, where the walk
// stopped, every counter, and exactly which peers were charged.
func TestWalk(t *testing.T) {
	cases := []struct {
		name    string
		script  []outcome // candidates "n0", "n1", ... in walk order
		fetcher bool      // fetcher policy instead of the router's
		timeout time.Duration
		open    []string // peers whose breaker is open before the walk

		calls     []string // peers called, in order
		served    string   // "" = the walk failed
		wantErr   error    // sentinel the failure must match
		failovers int64
		skips     int64
		charged   []string
	}{
		{name: "first answers", script: []outcome{doOK, doOK},
			calls: []string{"n0"}, served: "n0"},
		{name: "retryable fails over", script: []outcome{doRetryable, doOK},
			calls: []string{"n0", "n1"}, served: "n1", failovers: 1, charged: []string{"n0"}},
		{name: "terminal stops the walk", script: []outcome{doTerminal, doOK},
			calls: []string{"n0"}, wantErr: api.ErrBadRequest},
		{name: "router: unknown artifact is terminal", script: []outcome{doUnknownArtifact, doOK},
			calls: []string{"n0"}, wantErr: api.ErrUnknownArtifact},
		{name: "fetcher: unknown artifact moves on uncharged", script: []outcome{doUnknownArtifact, doOK}, fetcher: true,
			calls: []string{"n0", "n1"}, served: "n1", failovers: 1},
		{name: "fetcher: corrupt bytes move on charged", script: []outcome{doCorrupt, doOK}, fetcher: true,
			calls: []string{"n0", "n1"}, served: "n1", failovers: 1, charged: []string{"n0"}},
		{name: "fetcher: last failure is the exhaustion error", script: []outcome{doUnknownArtifact}, fetcher: true,
			calls: []string{"n0"}, wantErr: api.ErrUnknownArtifact},
		{name: "fetcher: no candidates", script: nil, fetcher: true,
			wantErr: service.ErrNoPeers},
		{name: "hang past the attempt timeout fails over", script: []outcome{doHang, doOK}, timeout: 30 * time.Millisecond,
			calls: []string{"n0", "n1"}, served: "n1", failovers: 1, charged: []string{"n0"}},
		{name: "late success past the attempt timeout is a failure", script: []outcome{doLateOK, doOK}, timeout: 30 * time.Millisecond,
			calls: []string{"n0", "n1"}, served: "n1", failovers: 1, charged: []string{"n0"}},
		{name: "caller cancellation stops uncharged", script: []outcome{doCallerCancels, doOK}, timeout: time.Minute,
			calls: []string{"n0"}, wantErr: context.Canceled},
		{name: "every candidate fails", script: []outcome{doRetryable, doRetryable},
			calls: []string{"n0", "n1"}, wantErr: api.ErrUnavailable, failovers: 1, charged: []string{"n0", "n1"}},
		{name: "open breaker is skipped, not failed over", script: []outcome{doOK, doOK}, open: []string{"n0"},
			calls: []string{"n1"}, served: "n1", skips: 1},
		{name: "all breakers open", script: []outcome{doOK, doOK}, open: []string{"n0", "n1"},
			wantErr: api.ErrUnavailable, skips: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			peers := make([]string, len(tc.script))
			script := make(map[string]outcome, len(tc.script))
			for i, o := range tc.script {
				peers[i] = fmt.Sprintf("n%d", i)
				script[peers[i]] = o
			}
			a := &attempter{
				breakers:  breaker.NewSet(breaker.Options{FailureThreshold: 1, Cooldown: time.Hour}),
				timeout:   tc.timeout,
				classify:  classifyRouted,
				exhausted: routedExhausted,
				counters:  newPeerCounters(peers),
			}
			if tc.fetcher {
				a.classify, a.exhausted = classifyFetched, fetchExhausted
			}
			for _, p := range tc.open {
				a.breakers.Failure(p)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls []string
			call := func(actx context.Context, node string) (string, error) {
				calls = append(calls, node)
				switch script[node] {
				case doOK:
					return node, nil
				case doRetryable:
					return "", fmt.Errorf("%w: scripted", api.ErrUnavailable)
				case doTerminal:
					return "", fmt.Errorf("%w: scripted", api.ErrBadRequest)
				case doUnknownArtifact:
					return "", fmt.Errorf("%w: scripted", api.ErrUnknownArtifact)
				case doCorrupt:
					return "", errors.New("scripted checksum mismatch")
				case doHang:
					<-actx.Done()
					return "", actx.Err()
				case doLateOK:
					<-actx.Done()
					return node, nil
				case doCallerCancels:
					cancel()
					<-actx.Done()
					return "", actx.Err()
				}
				return "", fmt.Errorf("unscripted outcome %d", script[node])
			}

			val, node, err := walk(ctx, a, peers, call)

			if tc.served != "" {
				if err != nil || node != tc.served || val != tc.served {
					t.Fatalf("walk = (%q, %q, %v), want served by %s", val, node, err, tc.served)
				}
			} else if !errors.Is(err, tc.wantErr) {
				t.Fatalf("walk error = %v, want %v", err, tc.wantErr)
			}
			if !reflect.DeepEqual(calls, tc.calls) {
				t.Errorf("call order = %v, want %v", calls, tc.calls)
			}
			for name, pair := range map[string][2]int64{
				"failovers":     {atomic.LoadInt64(&a.failovers), tc.failovers},
				"breaker_skips": {atomic.LoadInt64(&a.breakerSkips), tc.skips},
			} {
				if pair[0] != pair[1] {
					t.Errorf("%s = %d, want %d", name, pair[0], pair[1])
				}
			}
			var charged []string
			for _, p := range peers {
				f := atomic.LoadInt64(&a.counters[p].failures)
				// FailureThreshold 1: a charged peer's breaker is open, an
				// uncharged one's is not — the two ledgers must agree.
				open := a.breakers.For(p).State() == breaker.Open
				if pre := slices.Contains(tc.open, p); (f > 0 || pre) != open {
					t.Errorf("%s: failures=%d pre-opened=%v but breaker open=%v", p, f, pre, open)
				}
				if f > 0 {
					charged = append(charged, p)
				}
			}
			if !reflect.DeepEqual(charged, tc.charged) {
				t.Errorf("charged peers = %v, want %v", charged, tc.charged)
			}
		})
	}
}
