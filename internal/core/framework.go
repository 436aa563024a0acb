// Package core is the paper's two-phase model-selection framework: an
// offline phase that builds the performance matrix and model clustering
// once, and an online phase that, for each new target task, coarse-recalls
// a small candidate set via clustered proxy scoring and fine-selects the
// final model via convergence-trend-guided successive halving (§II.B).
//
// Typical use:
//
//	fw, err := core.Build(core.Options{Task: datahub.TaskNLP, Seed: 42})
//	target, err := fw.Catalog.Get("tweet_eval")
//	report, err := fw.Select(ctx, target)
//	fmt.Println(report.Outcome.Winner, report.TotalEpochs())
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"twophase/internal/datahub"
	"twophase/internal/lsq"
	"twophase/internal/modelhub"
	"twophase/internal/perfmatrix"
	"twophase/internal/recall"
	"twophase/internal/selection"
	"twophase/internal/synth"
	"twophase/internal/trainer"
)

// Options configures the offline build.
type Options struct {
	// Task selects the repository/dataset family ("nlp" or "cv").
	Task string
	// Seed drives every stochastic choice of the synthetic world.
	Seed uint64
	// Sizes optionally overrides split sizes (zero means defaults).
	Sizes datahub.Sizes
	// Workers bounds per-stage training parallelism of the online fine
	// selection (see selection.Config.Workers). Like every width in the
	// module it is fanout's: 0 (or less) is one worker per CPU, 1 is
	// sequential. Results are identical across settings.
	Workers int
	// BuildWorkers bounds the parallelism of the offline build itself:
	// perf-matrix cells, per-model recall vectors and the clustering
	// distance precompute all fan out under this budget (0 is one worker
	// per CPU; 1 forces a serial build). The built
	// framework is bit-identical for every setting — parallel stages
	// write preassigned cells and never reassociate a reduction.
	BuildWorkers int
}

// Framework bundles the offline artifacts needed to serve online
// selections for new target tasks.
type Framework struct {
	Task    string
	World   *synth.World
	Catalog *datahub.Catalog
	Repo    *modelhub.Repository
	Matrix  *perfmatrix.Matrix
	HP      trainer.Hyperparams
	Recall  recall.Options
	Seed    uint64
	Workers int
	// BuildWorkers is the offline-parallelism budget this framework was
	// built with; bulk experiment utilities such as OracleAccuracies
	// reuse it.
	BuildWorkers int

	// Stages records, per offline stage, whether this framework loaded a
	// persisted artifact or recomputed the stage.
	Stages Stages

	// Offline is the prepared coarse-recall stage: the target-independent
	// artifacts (performance vectors, clustering, representatives, Eq. 1
	// similarities) every two-phase and ensemble selection recalls from,
	// so serving many targets never re-clusters the repository.
	Offline *recall.Offline
}

// Stages reports the provenance of each offline-pipeline stage of one
// framework build. World synthesis (stage 1) is always recomputed: it is
// deterministic in the seed and small next to training, so only the
// performance matrix (stage 2) and the clustering/representative
// artifacts (stage 3) are persisted. Stage 1 generates no dataset and
// materializes no model: the catalog generates a target and the repository
// a model on its first read, and the benchmark datasets and the models
// trained on them exist only while stage 2 recomputes, so an assembly from
// stored artifacts synthesizes nothing a request has not read.
type Stages struct {
	// MatrixLoaded is true when the performance matrix came from a
	// persisted artifact instead of offline fine-tuning.
	MatrixLoaded bool
	// RecallLoaded is true when the clustering stage was rehydrated from
	// a persisted artifact instead of re-clustering the repository.
	RecallLoaded bool
}

// Artifacts carries persisted stage outputs into AssembleArtifacts. A nil
// field means "recompute that stage". Stage inputs are validated
// independently: a stale Recall artifact silently rebuilds only stage 3,
// while a mismatched Matrix fails the assembly (rebuilding it means
// redoing the whole offline phase, which is the caller's decision).
type Artifacts struct {
	Matrix *perfmatrix.Matrix
	Recall *recall.Artifact
}

// Build runs the offline phase: fine-tune every repository model on every
// benchmark dataset, and keep the performance matrix plus convergence
// records for online use. It keeps none of the models it trained: a built
// framework, like an assembled one, synthesizes nothing a request has not
// read.
func Build(opts Options) (*Framework, error) { return build(opts, Artifacts{}) }

// AssembleArtifacts constructs a Framework from whatever persisted stage
// artifacts are available — typically loaded from a store — recomputing
// only the stages whose artifact is missing or no longer matches its
// inputs. A provided matrix must describe exactly the world the options
// would build (same task, model set, benchmark set and epoch budget); a
// mismatch returns an error so callers can fall back to Build, which
// recomputes and overwrites every stage. The result is bit-identical to
// a cold Build for the same options.
func AssembleArtifacts(opts Options, art Artifacts) (*Framework, error) {
	return build(opts, art)
}

// build is the staged offline pipeline:
//
//	stage 1  world synthesis     — catalog + repository specs from the seed
//	stage 2  performance matrix  — offline fine-tuning (or artifact)
//	stage 3  recall artifacts    — clustering + representatives (or artifact)
//	stage 4  framework assembly
func build(opts Options, art Artifacts) (*Framework, error) {
	if opts.Task == "" {
		opts.Task = datahub.TaskNLP
	}
	// Stage 1: world synthesis. Deterministic in the seed and small next
	// to training, so it always recomputes and nothing of it is
	// persisted. The catalog generates no dataset and the repository
	// materializes no model here; stage 2 generates the benchmarks and
	// trains models of its own only when it recomputes.
	w := synth.NewWorld(opts.Seed)
	cat, err := datahub.NewTaskCatalog(w, opts.Task, opts.Sizes)
	if err != nil {
		return nil, fmt.Errorf("core: catalog: %w", err)
	}
	repo, err := modelhub.NewTaskRepository(w, opts.Task)
	if err != nil {
		return nil, fmt.Errorf("core: repository: %w", err)
	}
	hp := trainer.Default(opts.Task)

	// Stage 2: performance matrix.
	var stages Stages
	var m *perfmatrix.Matrix
	if art.Matrix != nil {
		if err := matrixMatches(art.Matrix, opts.Task, opts.Seed, repo, cat, hp); err != nil {
			return nil, fmt.Errorf("core: assemble: %w", err)
		}
		m = art.Matrix
		stages.MatrixLoaded = true
	} else {
		// The matrix stage trains a repository of its own and drops it
		// with the benchmark frames its feature caches filled, the way
		// Catalog.Benchmarks keeps no dataset: no request reads a
		// benchmark split, and the served repository materializes a model
		// when a request first reads it. Models draw from (seed, name)
		// alone, so the served ones are bit-identical to these.
		trained, err := modelhub.NewTaskRepository(w, opts.Task)
		if err != nil {
			return nil, fmt.Errorf("core: repository: %w", err)
		}
		m, err = perfmatrix.Build(trained, cat.Benchmarks(), hp, opts.Seed, opts.BuildWorkers)
		if err != nil {
			return nil, fmt.Errorf("core: performance matrix: %w", err)
		}
	}

	// Stage 3: target-independent recall artifacts.
	ro := fillRecallOptions(opts.Task)
	var off *recall.Offline
	if art.Recall != nil {
		if o, err := recall.Rehydrate(m, ro, art.Recall); err == nil {
			off = o
			stages.RecallLoaded = true
		}
		// A stale clustering artifact (another threshold, foreign matrix)
		// only invalidates this stage; fall through and recompute it.
	}
	if off == nil {
		off, err = recall.PrepareOfflineWith(m, ro, opts.BuildWorkers)
		if err != nil {
			return nil, fmt.Errorf("core: offline recall artifacts: %w", err)
		}
	}

	// Stage 4: assembly.
	return &Framework{
		Task:         opts.Task,
		World:        w,
		Catalog:      cat,
		Repo:         repo,
		Matrix:       m,
		HP:           hp,
		Recall:       ro,
		Seed:         opts.Seed,
		Workers:      opts.Workers,
		BuildWorkers: opts.BuildWorkers,
		Stages:       stages,
		Offline:      off,
	}, nil
}

// fillRecallOptions resolves the per-task recall defaults the framework
// builds with; of them only the threshold is in the stage-3 fingerprint.
// Only the CV threshold is core's own: CV performance vectors span only 10
// benchmarks, so their Eq. 1 distances are tighter, and a finer cut keeps
// the cluster structure (6 non-singleton clusters in the paper's Table II)
// visible. Every other default is recall's.
func fillRecallOptions(task string) recall.Options {
	var ro recall.Options
	if task == datahub.TaskCV {
		ro.Threshold = 0.06
	}
	ro.Fill()
	return ro
}

// RecallArtifact exports the framework's stage-3 clustering artifact for
// persistence, stamped with the matrix's provenance.
func (f *Framework) RecallArtifact() *recall.Artifact {
	return f.Offline.Artifact(f.Task, f.Seed)
}

// matrixMatches verifies that a pre-built matrix was produced by exactly
// the world the framework expects — same task, seed, hyperparameters,
// benchmark split sizes, model set and benchmark set — so a stale or
// foreign store artifact can never silently steer online selection. Model
// and dataset name sets alone cannot discriminate (they come from static
// per-task registries), which is why the matrix records its provenance.
func matrixMatches(m *perfmatrix.Matrix, task string, seed uint64, repo *modelhub.Repository, cat *datahub.Catalog, hp trainer.Hyperparams) error {
	if m.Task != task {
		return fmt.Errorf("matrix task %q, want %q", m.Task, task)
	}
	if m.Seed != seed {
		return fmt.Errorf("matrix seed %d, want %d", m.Seed, seed)
	}
	if m.HP != hp {
		return fmt.Errorf("matrix hyperparams %+v, want %+v", m.HP, hp)
	}
	if m.Sizes != cat.Sizes {
		return fmt.Errorf("matrix split sizes %+v, want %+v", m.Sizes, cat.Sizes)
	}
	if err := sameNames(m.Models, repo.Names()); err != nil {
		return fmt.Errorf("matrix models: %w", err)
	}
	if err := sameNames(m.Datasets, cat.BenchmarkNames()); err != nil {
		return fmt.Errorf("matrix datasets: %w", err)
	}
	return nil
}

func sameNames(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d names, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("name %d is %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// Strategy names an online selection procedure the framework can serve.
// It is the wire-level strategy identifier of the versioned selection API.
type Strategy string

const (
	// StrategyTwoPhase is the paper's pipeline: coarse recall, then
	// convergence-trend-guided fine selection. The default.
	StrategyTwoPhase Strategy = "two-phase"
	// StrategySH is successive halving over the whole repository.
	StrategySH Strategy = "sh"
	// StrategyBF is the brute-force baseline over the whole repository.
	StrategyBF Strategy = "bf"
	// StrategyEnsemble recalls candidates and soft-votes the top-k
	// fine-selection survivors.
	StrategyEnsemble Strategy = "ensemble"
	// StrategyLSQ is the zero-epoch closed-form baseline: a ridge
	// least-squares head fit on every repository model's cached feature
	// frame. It charges proxy-inference cost only and never trains, so
	// epoch and deadline budgets cannot truncate it.
	StrategyLSQ Strategy = "lsq"
)

// DefaultEnsembleK is the ensemble size used when a request leaves it
// unset (the k=3 configuration of the §VII extension experiments).
const DefaultEnsembleK = 3

// StrategyNames lists every valid wire name, default first. It is the
// single source of truth for usage strings and validation errors — new
// strategies are added here and in ParseStrategy, nowhere else.
func StrategyNames() []string {
	return []string{
		string(StrategyTwoPhase),
		string(StrategySH),
		string(StrategyBF),
		string(StrategyEnsemble),
		string(StrategyLSQ),
	}
}

// ParseStrategy maps a wire name to a Strategy; the empty string means
// StrategyTwoPhase. Unknown names return an error naming the valid set.
// Every layer that accepts a strategy string (API validation, CLI flags,
// the experiments harness) must parse through here so a name is either
// valid everywhere or a typed bad_request everywhere.
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(s) {
	case "", StrategyTwoPhase:
		return StrategyTwoPhase, nil
	case StrategySH, StrategyBF, StrategyEnsemble, StrategyLSQ:
		return Strategy(s), nil
	default:
		return "", fmt.Errorf("core: unknown strategy %q (want one of %s)",
			s, strings.Join(StrategyNames(), ", "))
	}
}

// SelectOptions tunes one online selection request.
type SelectOptions struct {
	// Strategy picks the procedure; empty means StrategyTwoPhase.
	Strategy Strategy
	// EnsembleK is the ensemble size for StrategyEnsemble
	// (0 means DefaultEnsembleK; ignored by the other strategies).
	EnsembleK int
	// MaxEpochs, when non-nil, caps the training epochs the fine phase may
	// spend before returning its best-so-far winner (Truncated on the
	// Report). 0 is a real zero budget; nil means unbounded. Deterministic:
	// a fixed cap truncates at the same stage on every serving path.
	MaxEpochs *int
	// Deadline, when nonzero, is the anytime wall-clock bound for the fine
	// phase. Passing it truncates the selection (a 200 with best-so-far),
	// unlike a context deadline, which cancels it (an error).
	Deadline time.Time
	// PrefilterTopK, when positive, ranks the candidate pool by the
	// closed-form lsq score and hands only the top-k (in original pool
	// order) to the epoch-trained strategies. 0 disables the pre-filter
	// entirely: the pool, the ledger, and the report are exactly what
	// they are today. Ignored by StrategyLSQ, which already is the
	// ranking. The lsq pass charges its proxy-inference cost (0.5 per
	// scored candidate) to the request ledger.
	PrefilterTopK int
}

// Report is the result of one end-to-end online selection.
type Report struct {
	// Target is the target dataset's name.
	Target string
	// Strategy is the procedure that produced this report.
	Strategy Strategy
	// Recall is the coarse-recall phase result (nil for the sh and bf
	// strategies, which search the whole repository).
	Recall *recall.Result
	// Outcome is the fine-selection phase result. For StrategyEnsemble it
	// carries the soft-voting ensemble's accuracies and the best member
	// as Winner.
	Outcome *selection.Outcome
	// Members are the ensembled model names, best validation first
	// (StrategyEnsemble only).
	Members []string
	// Ledger is the combined cost of all phases.
	Ledger trainer.Ledger
	// Truncated reports that the fine phase stopped at its request budget
	// and Outcome carries the best-so-far winner; TruncatedBy names the
	// exhausted dimension (selection.TruncatedByEpochs or
	// selection.TruncatedByDeadline).
	Truncated   bool
	TruncatedBy string
}

// TotalEpochs returns the end-to-end cost in epochs (proxy inference
// charged at 0.5 per scored model, as in Table VI).
func (r *Report) TotalEpochs() float64 { return r.Ledger.Total() }

// Select runs the full online pipeline (coarse recall, then fine
// selection) for a target dataset. A canceled context aborts the
// selection mid-round with ctx.Err().
func (f *Framework) Select(ctx context.Context, target *datahub.Dataset) (*Report, error) {
	return f.SelectWith(ctx, target, SelectOptions{})
}

// fineSalt separates the run streams of the epoch-trained strategies; the
// ensemble shares two-phase's, so its members train exactly as the
// two-phase candidates do.
var fineSalt = map[Strategy]string{
	StrategyTwoPhase: "two-phase",
	StrategyEnsemble: "two-phase",
	StrategySH:       "successive-halving",
	StrategyBF:       "brute-force",
}

// SelectWith is the single dispatch point for every online selection
// strategy. The four epoch-trained ones share one path — resolve the
// candidate pool (coarse-recalled for two-phase and ensemble, the whole
// repository for sh and bf), apply the optional lsq pre-filter, run the
// strategy's staged search, assemble the Report — and lsq, which trains
// nothing, is the one separate arm.
func (f *Framework) SelectWith(ctx context.Context, target *datahub.Dataset, opts SelectOptions) (*Report, error) {
	// Refuse dead requests before the recall phase too — proxy-scoring
	// the repository is cheap per model but not free across a batch.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	strat, err := ParseStrategy(string(opts.Strategy))
	if err != nil {
		return nil, err
	}
	report := &Report{Target: target.Name, Strategy: strat}

	if strat == StrategyLSQ {
		// Zero-epoch path: rank the whole repository by closed-form head
		// quality and report the best, rendered as a uniform Report. The
		// request's budget fields never truncate it — there is no training
		// to cut short — so max_epochs: 0 yields truncated: false with the
		// proxy-inference cost on the ledger.
		res, err := lsq.Rank(ctx, f.Repo.Models(), target, lsq.Options{Workers: f.Workers}, &report.Ledger)
		if err != nil {
			return nil, fmt.Errorf("core: lsq selection on %s: %w", target.Name, err)
		}
		best := res.Best()
		report.Outcome = &selection.Outcome{
			Winner:     res.Names[best],
			WinnerVal:  res.Val[best],
			WinnerTest: res.Test[best],
			Ledger:     report.Ledger,
			Stages:     [][]string{append([]string(nil), res.Names...)},
		}
		return report, nil
	}

	// Two-phase and ensemble materialize only the representatives they
	// proxy-score and the candidates they recall; sh and bf search the
	// whole repository.
	var pool []*modelhub.Model
	if strat == StrategyTwoPhase || strat == StrategyEnsemble {
		report.Recall, err = f.Offline.Recall(f.Repo, target, &report.Ledger)
		if err != nil {
			return nil, fmt.Errorf("core: coarse recall on %s: %w", target.Name, err)
		}
		candidates, err := f.Repo.Subset(report.Recall.Recalled)
		if err != nil {
			return nil, err
		}
		pool = candidates.Models()
	} else {
		pool = f.Repo.Models()
	}
	pool, err = prefilter(ctx, pool, target, opts.PrefilterTopK, f.Workers, &report.Ledger)
	if err != nil {
		return nil, err
	}
	// The budget fields make the fine phase anytime (see selection.Config).
	fine := selection.FineSelectOptions{
		Config: selection.Config{
			HP: f.HP, Seed: f.Seed, Salt: fineSalt[strat], Workers: f.Workers,
			MaxEpochs: opts.MaxEpochs, Deadline: opts.Deadline,
		},
		Matrix: f.Matrix,
	}
	var out *selection.Outcome
	switch strat {
	case StrategyTwoPhase:
		out, err = selection.FineSelect(ctx, pool, target, fine)
	case StrategyEnsemble:
		k := opts.EnsembleK
		if k <= 0 {
			k = DefaultEnsembleK
		}
		out, err = selection.EnsembleSelect(ctx, pool, target, fine, k)
	case StrategySH:
		out, err = selection.SuccessiveHalving(ctx, pool, target, fine.Config)
	case StrategyBF:
		out, err = selection.BruteForce(ctx, pool, target, fine.Config)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s selection on %s: %w", strat, target.Name, err)
	}
	report.Outcome, report.Members = out, out.Members
	report.Truncated, report.TruncatedBy = out.Truncated, out.TruncatedBy
	report.Ledger.Add(out.Ledger)
	return report, nil
}

// prefilter applies the optional lsq pre-filter to an epoch-trained
// strategy's candidate pool: the k best lsq scores, in pool order. k <= 0
// returns the pool untouched and charges nothing — disabled means
// byte-identical to a request without the field.
func prefilter(ctx context.Context, pool []*modelhub.Model, target *datahub.Dataset, k, workers int, ledger *trainer.Ledger) ([]*modelhub.Model, error) {
	if k <= 0 || len(pool) == 0 {
		return pool, nil
	}
	res, err := lsq.Rank(ctx, pool, target, lsq.Options{Workers: workers}, ledger)
	if err != nil {
		return nil, fmt.Errorf("core: lsq pre-filter on %s: %w", target.Name, err)
	}
	keep := make(map[string]bool, k)
	for _, name := range res.TopK(k) {
		keep[name] = true
	}
	out := make([]*modelhub.Model, 0, len(keep))
	for _, m := range pool {
		if keep[m.Name] {
			out = append(out, m)
		}
	}
	return out, nil
}

// OracleAccuracies brute-force fine-tunes every repository model on the
// target and returns each model's final test accuracy — the ground truth
// used by the evaluation (Fig. 1, Fig. 5, Table VII). It is an
// experiment-support utility, not part of the selection pipeline. Runs
// fan out under the framework's BuildWorkers budget; each run owns an
// independent RNG stream, so the accuracies are identical at any width.
func (f *Framework) OracleAccuracies(ctx context.Context, target *datahub.Dataset) (map[string]float64, error) {
	models := f.Repo.Models()
	curves, err := trainer.FineTuneGrid(ctx, models, []*datahub.Dataset{target}, f.HP, f.Seed, "oracle", f.BuildWorkers)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(models))
	for i, m := range models {
		out[m.Name] = curves[i].Test
	}
	return out, nil
}
