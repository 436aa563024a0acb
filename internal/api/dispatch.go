package api

import (
	"context"
	"time"

	"twophase/internal/service"
)

// API is the versioned selection contract. Dispatcher implements it in
// process; Client implements it over HTTP. The CLI and the server are both
// written against this interface, so the two paths cannot drift.
type API interface {
	// Select serves a selection request. A single-target request
	// surfaces that target's failure as the request error; a batch
	// reports per-target errors in Results and counts them in Failed.
	Select(ctx context.Context, req *SelectRequest) (*SelectResponse, error)
	// Stats snapshots the serving process's counters.
	Stats(ctx context.Context) (*Stats, error)
}

// Dispatcher is the in-process API implementation: it validates requests,
// routes every strategy through service.Do, and renders uniform responses.
type Dispatcher struct {
	svc *service.Service
	// baseSeed echoes the service's configured world seed in responses.
	baseSeed uint64
}

// NewDispatcher wraps a service in the v1 contract. baseSeed is the seed
// the service was configured with, echoed on responses that do not
// override it.
func NewDispatcher(svc *service.Service, baseSeed uint64) *Dispatcher {
	return &Dispatcher{svc: svc, baseSeed: baseSeed}
}

// Select implements API.
func (d *Dispatcher) Select(ctx context.Context, req *SelectRequest) (*SelectResponse, error) {
	if req == nil {
		return nil, errBadRequest("nil request")
	}
	strat, err := req.Normalize()
	if err != nil {
		return nil, err
	}

	start := time.Now()
	sreq := service.Request{
		Task:          req.Task,
		Targets:       req.Targets,
		Strategy:      strat,
		Seed:          req.Seed,
		EnsembleK:     req.EnsembleK,
		MaxEpochs:     req.MaxEpochs,
		PrefilterTopK: req.PrefilterTopK,
	}
	if req.DeadlineMS > 0 {
		// The budget deadline is resolved to an absolute instant here, at
		// admission — deliberately NOT via the request context: a context
		// deadline cancels the work (499), the budget deadline truncates
		// it (200 with best-so-far).
		sreq.Deadline = start.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	results, err := d.svc.Do(ctx, sreq)
	if err != nil {
		return nil, classify(err)
	}
	// A context canceled mid-batch leaves every unfinished target with a
	// context error; surface that as one request-level cancellation.
	if ctx.Err() != nil {
		return nil, classify(ctx.Err())
	}

	seed := d.baseSeed
	if req.Seed != nil {
		seed = *req.Seed
	}
	resp := &SelectResponse{
		APIVersion: Version,
		Task:       req.Task,
		Strategy:   string(strat),
		Seed:       seed,
		Results:    make([]TargetResult, len(results)),
	}
	for i, r := range results {
		tr := TargetResult{Target: r.Target}
		if r.Err != nil {
			err := classify(r.Err)
			tr.Error = err.Error()
			tr.ErrorCode = Code(err)
			resp.Failed++
		} else {
			tr.Winner = r.Report.Outcome.Winner
			tr.Members = r.Report.Members
			tr.ValAcc = r.Report.Outcome.WinnerVal
			tr.TestAcc = r.Report.Outcome.WinnerTest
			tr.Epochs = r.Report.TotalEpochs()
			if r.Report.Recall != nil {
				tr.Recalled = len(r.Report.Recall.Recalled)
			}
			if r.Report.Truncated {
				tr.Truncated = true
				tr.Budget = &BudgetStatus{
					TruncatedBy: r.Report.TruncatedBy,
					MaxEpochs:   req.MaxEpochs,
					DeadlineMS:  req.DeadlineMS,
				}
				resp.Truncated++
			}
			if r.Degraded {
				tr.Degraded = true
				resp.Degraded++
			}
			// Batch cost is the sum of this request's per-target
			// ledgers, never the service's cumulative spend.
			resp.TotalEpochs += r.Report.TotalEpochs()
		}
		resp.Results[i] = tr
	}
	if len(results) == 1 && results[0].Err != nil {
		// The single-selection form is an RPC: its one failure is the
		// request's failure, mapped to a proper HTTP status.
		return nil, classify(results[0].Err)
	}
	resp.OfflineBuilds = d.svc.Builds()
	resp.WallMillis = time.Since(start).Milliseconds()
	return resp, nil
}

// Stats implements API.
func (d *Dispatcher) Stats(context.Context) (*Stats, error) {
	cost := d.svc.Cost()
	st := &Stats{
		APIVersion:    Version,
		OfflineBuilds: d.svc.Builds(),
		TotalEpochs:   cost.Total(),
		TrainEpochs:   cost.TrainEpochs(),
		Cache:         d.svc.CacheStats(),
	}
	if err := d.svc.PersistErr(); err != nil {
		st.PersistDegraded = true
		st.PersistError = err.Error()
	}
	deg := d.svc.DegradedStats()
	st.DegradedWorlds = deg.Worlds
	st.DegradedServes = deg.Serves
	st.Panics = d.svc.Panics()
	if d.svc.Store() != nil {
		a := d.svc.ArtifactStats()
		st.Artifacts = &a
	}
	return st, nil
}
