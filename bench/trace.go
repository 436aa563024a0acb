package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"twophase/internal/api"
	"twophase/internal/core"
	"twophase/internal/lifecycle"
	"twophase/internal/recall"
	"twophase/internal/selection"
	"twophase/internal/service"
	"twophase/internal/trainer"
)

// The ladder: the public entry points one select passes on its way down,
// outermost first. Timing the same request at two adjacent rungs and
// subtracting gives the cost of the layer between them, measured from
// outside both.
type rung int

const (
	rungGateway  rung = iota // api.Client → gateway HTTP → router → backend HTTP → ...
	rungBackend              // api.Client → the owning backend's HTTP listener
	rungHandler              // the backend's http.Handler on a ResponseRecorder
	rungDispatch             // api.Dispatcher.Select
	rungService              // service.Service.Do
	rungCore                 // core.Framework.SelectWith
	rungPhases               // recall.Offline.Recall, then selection.FineSelect
	// rungGatewayPlain repeats the gateway rung without recording a span:
	// the pair gives the tracing overhead.
	rungGatewayPlain
	numRungs
)

var rungNames = [numRungs]string{"gateway", "backend_http", "handler", "dispatch", "service", "core", "phases", "gateway_untraced"}

// span is one timed call into a layer. Spans of one request share Request;
// Parent is the span of the rung above for the same request, the call that
// in production encloses this one.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Request int    `json:"request"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spansPerRequest numbers a request's spans: one per rung above the phases,
// then recall and fine-select.
const spansPerRequest = int(rungPhases) + 2

// ladderWorld is a world as the bench itself holds it for the rungs below
// the service: assembled from the fleet's store the way a backend restores
// it, with its own models and so its own feature caches.
type ladderWorld struct {
	fw  *core.Framework
	off *recall.Offline
}

func assembleWorld(f *fleet, w workload, key lifecycle.Key) (*ladderWorld, error) {
	st := f.Backends[0].Svc.Store()
	matrix, err := st.GetMatrix(key.String())
	if err != nil {
		return nil, err
	}
	art, err := st.GetRecall(key.String())
	if err != nil {
		return nil, err
	}
	fw, err := core.AssembleArtifacts(
		core.Options{Task: key.Task, Seed: key.Seed, Sizes: w.Sizes, Workers: runtime.GOMAXPROCS(0)},
		core.Artifacts{Matrix: matrix, Recall: art})
	if err != nil {
		return nil, err
	}
	off, err := recall.Rehydrate(fw.Matrix, fw.Recall, fw.RecallArtifact())
	if err != nil {
		return nil, err
	}
	return &ladderWorld{fw: fw, off: off}, nil
}

// tracedPass replays the workload's ladder lap, one whole lap per rung, the
// rungs in a fresh order every round. Walking a lap per rung (not all rungs per
// request) keeps every rung in the cache state the workload creates: each
// lap presents the fleet, or the bench's own worlds, with the same cyclic
// sequence the measured phase did, so a rung sees thrashed feature caches on
// sweep_single and a freshly restored world on cold_restore however it is
// entered. Sample i of every rung is the same (world, target), so layer self
// times are medians of per-request paired differences.
func tracedPass(ctx context.Context, f *fleet, p *plan, next *int, m metricSet) error {
	w := p.w
	lap := p.Ladder
	samples := w.TraceLaps * len(lap)
	var ms [numRungs][]float64
	for r := range ms {
		ms[r] = make([]float64, samples)
	}
	recallMS := make([]float64, samples)
	fineMS := make([]float64, samples)
	var spans []span
	epoch := time.Now()
	record := func(i int, ordinal int, name string, start, end time.Time) {
		id := 1 + i*spansPerRequest + ordinal
		parent := id - 1
		if ordinal == 0 {
			parent = 0
		} else if ordinal == spansPerRequest-1 {
			parent = id - 2 // fine-select's parent is the core span, like recall's
		}
		spans = append(spans, span{ID: id, Parent: parent, Name: name, Request: i,
			StartNS: start.Sub(epoch).Nanoseconds(), EndNS: end.Sub(epoch).Nanoseconds()})
	}

	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	direct := make(map[*backend]*api.Client)
	for _, b := range f.Backends {
		direct[b] = api.NewClient(b.URL, &http.Client{Transport: transport})
	}
	resident := make(map[lifecycle.Key]*ladderWorld)
	world := func(key lifecycle.Key) (*ladderWorld, error) {
		if lw := resident[key]; lw != nil {
			return lw, nil
		}
		lw, err := assembleWorld(f, w, key)
		if err == nil && !w.cold() {
			resident[key] = lw
		}
		return lw, err
	}

	bytesPerRequest, err := responseBytes(f, p, next)
	if err != nil {
		return err
	}

	call := func(r rung, i int, req *api.SelectRequest) error {
		key := lifecycle.Key{Task: req.Task, Seed: *req.Seed}
		b := f.primary(req.Task, *req.Seed)
		var start, end time.Time
		var err error
		switch r {
		case rungGateway, rungGatewayPlain:
			start = time.Now()
			_, err = f.Client.Select(ctx, req)
			end = time.Now()
		case rungBackend:
			start = time.Now()
			_, err = direct[b].Select(ctx, req)
			end = time.Now()
		case rungHandler:
			body, merr := json.Marshal(req)
			if merr != nil {
				return merr
			}
			hr := httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(body)).WithContext(ctx)
			hr.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			start = time.Now()
			b.Handler.ServeHTTP(rec, hr)
			end = time.Now()
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
			}
		case rungDispatch:
			start = time.Now()
			_, err = b.Dispatcher.Select(ctx, req)
			end = time.Now()
		case rungService:
			sreq := service.Request{Task: req.Task, Targets: req.Targets, Strategy: core.StrategyTwoPhase, Seed: req.Seed, MaxEpochs: req.MaxEpochs}
			start = time.Now()
			var res []service.Result
			res, err = b.Svc.Do(ctx, sreq)
			end = time.Now()
			if err == nil {
				err = res[0].Err
			}
		case rungCore, rungPhases:
			lw, werr := world(key)
			if werr != nil {
				return werr
			}
			d, derr := lw.fw.Catalog.Get(req.Targets[0])
			if derr != nil {
				return derr
			}
			if r == rungCore {
				start = time.Now()
				_, err = lw.fw.SelectWith(ctx, d, core.SelectOptions{MaxEpochs: req.MaxEpochs})
				end = time.Now()
				break
			}
			var ledger trainer.Ledger
			start = time.Now()
			rr, rerr := lw.off.Recall(lw.fw.Repo, d, &ledger)
			mid := time.Now()
			if rerr != nil {
				return rerr
			}
			pool, perr := lw.fw.Repo.Subset(rr.Recalled)
			if perr != nil {
				return perr
			}
			fineStart := time.Now()
			_, err = selection.FineSelect(ctx, pool.Models(), d, selection.FineSelectOptions{
				Config: selection.Config{HP: lw.fw.HP, Seed: lw.fw.Seed, Salt: "two-phase", Workers: lw.fw.Workers, MaxEpochs: req.MaxEpochs},
				Matrix: lw.fw.Matrix,
			})
			end = time.Now()
			if i >= 0 {
				recallMS[i] = float64(mid.Sub(start)) / 1e6
				fineMS[i] = float64(end.Sub(fineStart)) / 1e6
				record(i, int(rungPhases), "recall", start, mid)
				record(i, int(rungPhases)+1, "fineselect", fineStart, end)
			}
		}
		if err != nil {
			return fmt.Errorf("%s rung, %s %v: %w", rungNames[r], key, req.Targets, err)
		}
		if i < 0 {
			return nil
		}
		ms[r][i] = float64(end.Sub(start)) / 1e6
		if r < rungPhases {
			record(i, int(r), rungNames[r], start, end)
		}
		return nil
	}
	// walk sends one ladder lap through a rung; a negative base keeps no
	// timings.
	walk := func(r rung, base int) error {
		for pos, pl := range lap {
			req := p.request(pl, *next)
			*next++
			i := -1
			if base >= 0 {
				i = base + pos
			}
			if err := call(r, i, req); err != nil {
				return err
			}
		}
		return nil
	}

	// The rungs above the service run on the fleet's worlds, the ones below
	// on the bench's own copies, and a lap's working set (a few MB of feature
	// frames per target) does not survive a lap on the other copy in the CPU
	// caches. So each round walks the two groups one after the other, each
	// behind an untimed lap that settles its copy, and draws the order within
	// a group afresh, so that no rung keeps the same predecessor. The first
	// settling lap also fills the feature caches of the bench's own worlds;
	// the fleet's are in the measured phase's state already.
	groups := [][]rung{
		{rungGateway, rungGatewayPlain, rungBackend, rungHandler, rungDispatch, rungService},
		{rungCore, rungPhases},
	}
	order := rand.New(rand.NewSource(int64(p.seed)))
	for lapNo := 0; lapNo < w.TraceLaps; lapNo++ {
		for _, group := range groups {
			order.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
			if !w.cold() || lapNo == 0 { // a restore per request leaves nothing to settle
				if err := walk(group[0], -1); err != nil {
					return err
				}
			}
			for _, r := range group {
				if err := walk(r, lapNo*len(lap)); err != nil {
					return err
				}
			}
		}
	}

	phases := make([]float64, samples)
	for i := range phases {
		phases[i] = recallMS[i] + fineMS[i]
	}
	gateway := median(ms[rungGateway])
	m["shard.self_ms"] = pairedDeltaMedian(ms[rungGateway], ms[rungBackend])
	m["api.wire_self_ms"] = pairedDeltaMedian(ms[rungBackend], ms[rungHandler])
	m["api.handler_self_ms"] = pairedDeltaMedian(ms[rungHandler], ms[rungDispatch])
	m["api.dispatch_self_ms"] = pairedDeltaMedian(ms[rungDispatch], ms[rungService])
	m["service.self_ms"] = pairedDeltaMedian(ms[rungService], ms[rungCore])
	m["core.self_ms"] = pairedDeltaMedian(ms[rungCore], phases)
	m["core.select_ms"] = median(ms[rungCore])
	m["recall.recall_ms"] = median(recallMS)
	m["selection.fineselect_ms"] = median(fineMS)
	sum := m["shard.self_ms"] + m["api.wire_self_ms"] + m["api.handler_self_ms"] + m["api.dispatch_self_ms"] +
		m["service.self_ms"] + m["core.self_ms"] + m["recall.recall_ms"] + m["selection.fineselect_ms"]
	m["bench.ladder_residual_pct"] = (sum - gateway) / gateway * 100
	m["bench.trace_overhead_pct"] = pairedDeltaMedian(ms[rungGateway], ms[rungGatewayPlain]) / median(ms[rungGatewayPlain]) * 100
	m["api.response_bytes_per_request"] = bytesPerRequest
	m["bench.ladder_gateway_ms"] = gateway

	return writeTrace(w.Name, spans)
}

// responseBytes serves one measured lap straight into a recorder at the
// gateway's handler and returns the mean body size: what each request of
// the measured phase made the client read.
func responseBytes(f *fleet, p *plan, next *int) (float64, error) {
	total := 0
	for _, pl := range p.Lap {
		body, err := json.Marshal(p.request(pl, *next))
		*next++
		if err != nil {
			return 0, err
		}
		rec := httptest.NewRecorder()
		f.gateway.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("gateway handler: status %d: %s", rec.Code, rec.Body.String())
		}
		total += rec.Body.Len()
	}
	return float64(total) / float64(len(p.Lap)), nil
}

// writeTrace dumps the spans kept in memory during the pass.
func writeTrace(workload string, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace_"+workload+".json"), data, 0o644)
}
