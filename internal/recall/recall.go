// Package recall implements the coarse-recall phase (§III): cluster the
// repository by performance vectors, compute the proxy score only for each
// non-singleton cluster's representative, propagate scores to singleton
// clusters by model similarity, and return the top-K candidates by
// recall score (Eq. 2-4).
//
// The phase is split where the paper splits it. Everything that depends on
// the performance matrix alone — vectors, benchmark averages, clustering,
// representatives, and the Eq. 1 similarity of every singleton model to
// every representative — is computed once per Offline (PrepareOfflineWith
// or Rehydrate, which share assembleOffline so built and restored worlds
// agree bit for bit). Recall, the per-request half, scores the
// representatives on the target and combines those scores with the
// precomputed tables; it computes no distance and no grouping. A framework
// prepares one Offline and serves every target from it; the evaluation
// reads that same Offline. Only the clustering persists (Artifact); K and
// the proxy scorer act only in Recall, so a stored clustering serves both.
package recall

import (
	"fmt"
	"slices"

	"twophase/internal/cluster"
	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/perfmatrix"
	"twophase/internal/proxy"
	"twophase/internal/trainer"
)

// SimilarityK is the k of Eq. 1's top-k difference similarity; appendix D
// selects 5.
const SimilarityK = 5

// Options configures the coarse-recall phase.
type Options struct {
	// K is the number of models to recall; the paper settles on 10
	// (~25-30% of the repository, §V.B).
	K int
	// Threshold is the average-linkage cut distance for model clustering.
	Threshold float64
	// Scorer is the proxy task; nil means calibrated LEEP (§II.A).
	Scorer proxy.Scorer
}

// Fill replaces every unset field with the paper's setting — the one
// place the recall defaults are written.
func (o *Options) Fill() {
	if o.K <= 0 {
		o.K = 10
	}
	if o.Threshold <= 0 {
		o.Threshold = 0.08
	}
	if o.Scorer == nil {
		o.Scorer = proxy.CalibratedLEEP{}
	}
}

// Result is the outcome of one coarse-recall invocation.
type Result struct {
	// Recalled lists the top-K model names, best recall score first.
	Recalled []string
	// RecallScores maps every repository model to its Eq. 2/3/4 score.
	RecallScores map[string]float64
	// ProxyScores maps every model to the normalized proxy score used in
	// its recall score (the representative's score for cluster members,
	// the propagated mixture for singletons).
	ProxyScores map[string]float64
	// Clustering is the model clustering over matrix.Models order.
	Clustering cluster.Clustering
	// Representatives maps non-singleton cluster id -> representative
	// model name (the member with the best benchmark average, §III.A).
	Representatives map[int]string
	// ScoredModels counts proxy computations, i.e. model loads +
	// inference passes (charged 0.5 epoch each).
	ScoredModels int
}

// Offline bundles the target-independent artifacts of coarse recall —
// benchmark averages, the model clustering, its representatives and the
// Eq. 1 similarities score propagation needs. The paper computes these
// once in the offline phase (§II.B); preparing them once per framework
// lets a serving layer answer many targets without re-clustering the
// repository every request.
// An Offline is immutable after PrepareOfflineWith and safe for concurrent use.
type Offline struct {
	opts   Options
	names  []string
	avgAcc []float64

	// Clustering is the model clustering over the matrix's model order.
	Clustering cluster.Clustering
	reps       map[int]string
	cids       []int // representative cluster ids, ascending

	// repOf[i] is the position in cids of the representative whose proxy
	// score model i takes as is (Eq. 3: its own cluster's), or -1 for a
	// singleton that Eq. 4 propagates to; sims[i] is then its Eq. 1
	// similarity, clamped at 0, to each representative in cids order.
	repOf []int
	sims  [][]float64
}

// PrepareOfflineWith computes the target-independent half of coarse
// recall under a worker budget (fanout's width: 1 is serial): the O(n²)
// pairwise-distance precompute inside clustering fans out across workers.
// Parallelism never touches the merge order or any per-vector reduction,
// so the Offline — and the Artifact persisted from it — is bit-identical
// for every worker count.
func PrepareOfflineWith(m *perfmatrix.Matrix, opts Options, workers int) (*Offline, error) {
	opts.Fill()
	names, vecs, avgAcc, err := matrixVectors(m)
	if err != nil {
		return nil, err
	}
	dist := cluster.TopKDistance(SimilarityK)
	clustering := cluster.Agglomerative(vecs.Rows2D(), dist, opts.Threshold, 0, workers)
	return assembleOffline(opts, names, vecs, avgAcc, dist, clustering), nil
}

// matrixVectors returns the matrix's models, their performance vectors
// (a frame, a row per model in matrix order) and each model's benchmark
// average.
func matrixVectors(m *perfmatrix.Matrix) (names []string, vecs *numeric.Frame, avgAcc []float64, err error) {
	names = m.Models
	if len(names) == 0 {
		return nil, nil, nil, fmt.Errorf("recall: empty performance matrix")
	}
	vecs = m.Vectors()
	avgAcc = make([]float64, len(names))
	for i := range names {
		avgAcc[i] = m.AvgAcc(i)
	}
	return names, vecs, avgAcc, nil
}

// assembleOffline derives representatives, their deterministic order and
// the singleton-to-representative similarity table from a clustering —
// the shared tail of PrepareOfflineWith and Rehydrate, so a rehydrated
// Offline is bit-identical to a freshly clustered one. None of it is
// persisted.
func assembleOffline(opts Options, names []string, vecs *numeric.Frame, avgAcc []float64, dist func(a, b []float64) float64, clustering cluster.Clustering) *Offline {
	// Representatives of non-singleton clusters: best benchmark average.
	reps := make(map[int]string)
	repIdx := make(map[int]int)
	for cid, members := range clustering.Groups() {
		if len(members) < 2 {
			continue
		}
		best := members[0]
		for _, i := range members[1:] {
			if avgAcc[i] > avgAcc[best] {
				best = i
			}
		}
		reps[cid] = names[best]
		repIdx[cid] = best
	}
	if len(reps) == 0 {
		// Degenerate clustering (all singletons): fall back to scoring
		// every model directly, which is plain proxy-based recall.
		for cid, members := range clustering.Groups() {
			reps[cid] = names[members[0]]
			repIdx[cid] = members[0]
		}
	}

	cids := make([]int, 0, len(reps))
	for cid := range reps {
		cids = append(cids, cid)
	}
	slices.Sort(cids)

	// Eq. 1 similarities depend on performance vectors only, so they are
	// offline work: a singleton outside the scored set gets its row of
	// similarities here and Recall only weighs them by the target's proxy
	// scores.
	pos := make(map[int]int, len(cids))
	for k, cid := range cids {
		pos[cid] = k
	}
	repOf := make([]int, len(names))
	sims := make([][]float64, len(names))
	for i := range names {
		if k, ok := pos[clustering.Assign[i]]; ok {
			repOf[i] = k
			continue
		}
		repOf[i] = -1
		row := make([]float64, len(cids))
		for k, cid := range cids {
			sim := 1 - dist(vecs.Row(i), vecs.Row(repIdx[cid]))
			if sim < 0 {
				sim = 0
			}
			row[k] = sim
		}
		sims[i] = row
	}
	return &Offline{
		opts:       opts,
		names:      names,
		avgAcc:     avgAcc,
		Clustering: clustering,
		reps:       reps,
		cids:       cids,
		repOf:      repOf,
		sims:       sims,
	}
}

// Artifact is the serializable form of the clustering stage of the offline
// pipeline: the agglomerative assignment plus the fingerprint of the inputs
// that shaped it (task, seed, SimilarityK, threshold, model order). Its one
// encoding is internal/artifact's binary codec. Persisting it lets a warm
// start rehydrate an Offline without re-running the O(n³) clustering; the
// fingerprint lets the loader detect that any input changed and rebuild.
type Artifact struct {
	Task        string
	Seed        uint64
	SimilarityK int
	Threshold   float64
	Models      []string
	Assign      []int
	Clusters    int
}

// Artifact exports the offline clustering stage for persistence. Task and
// seed record the provenance of the matrix it was derived from.
func (o *Offline) Artifact(task string, seed uint64) *Artifact {
	return &Artifact{
		Task:        task,
		Seed:        seed,
		SimilarityK: SimilarityK,
		Threshold:   o.opts.Threshold,
		Models:      o.names,
		Assign:      o.Clustering.Assign,
		Clusters:    o.Clustering.K,
	}
}

// Rehydrate rebuilds an Offline from a persisted clustering artifact,
// skipping the agglomerative pass. The artifact's fingerprint must match
// the inputs at hand or Rehydrate errors so the caller falls back to
// PrepareOfflineWith; opts.K and opts.Scorer are free, so a served
// clustering also yields an Offline with another K or scorer. Everything
// derived is recomputed from the matrix, so a rehydrated Offline recalls
// bit-identically to a cold-built one with the same options.
func Rehydrate(m *perfmatrix.Matrix, opts Options, a *Artifact) (*Offline, error) {
	if a == nil {
		return nil, fmt.Errorf("recall: rehydrate: nil artifact")
	}
	opts.Fill()
	if a.SimilarityK != SimilarityK {
		return nil, fmt.Errorf("recall: artifact similarity k %d, want %d", a.SimilarityK, SimilarityK)
	}
	if a.Threshold != opts.Threshold {
		return nil, fmt.Errorf("recall: artifact threshold %v, want %v", a.Threshold, opts.Threshold)
	}
	if a.Task != m.Task {
		return nil, fmt.Errorf("recall: artifact task %q, want %q", a.Task, m.Task)
	}
	if a.Seed != m.Seed {
		return nil, fmt.Errorf("recall: artifact seed %d, want %d", a.Seed, m.Seed)
	}
	names, vecs, avgAcc, err := matrixVectors(m)
	if err != nil {
		return nil, err
	}
	if len(a.Models) != len(names) || len(a.Assign) != len(names) {
		return nil, fmt.Errorf("recall: artifact covers %d models (%d assignments), matrix has %d",
			len(a.Models), len(a.Assign), len(names))
	}
	for i, name := range names {
		if a.Models[i] != name {
			return nil, fmt.Errorf("recall: artifact model %d is %q, matrix has %q", i, a.Models[i], name)
		}
	}
	if a.Clusters <= 0 || a.Clusters > len(names) {
		return nil, fmt.Errorf("recall: artifact cluster count %d out of range", a.Clusters)
	}
	sizes := make([]int, a.Clusters)
	for i, c := range a.Assign {
		if c < 0 || c >= a.Clusters {
			return nil, fmt.Errorf("recall: artifact assignment %d is cluster %d, want [0,%d)", i, c, a.Clusters)
		}
		sizes[c]++
	}
	for c, n := range sizes {
		if n == 0 {
			return nil, fmt.Errorf("recall: artifact cluster %d is empty", c)
		}
	}
	assign := make([]int, len(a.Assign))
	copy(assign, a.Assign)
	clustering := cluster.Clustering{Assign: assign, K: a.Clusters}
	dist := cluster.TopKDistance(SimilarityK)
	return assembleOffline(opts, names, vecs, avgAcc, dist, clustering), nil
}

// Recall runs the online half of the phase against one target dataset:
// proxy-score the representatives, normalize, propagate to members and
// singletons through the precomputed tables, and rank. The ledger, if
// non-nil, is charged 0.5 epoch per proxy computation.
func (o *Offline) Recall(repo *modelhub.Repository, target *datahub.Dataset, ledger *trainer.Ledger) (*Result, error) {
	// Proxy scores for representatives only, then min-max normalization
	// across the scored set (Eq. 2's [0,1] normalization).
	raw := make([]float64, len(o.cids))
	for i, cid := range o.cids {
		model, err := repo.Get(o.reps[cid])
		if err != nil {
			return nil, err
		}
		s, err := o.opts.Scorer.Score(model, target)
		if err != nil {
			return nil, fmt.Errorf("recall: proxy %s on %s: %w", o.opts.Scorer.Name(), model.Name, err)
		}
		raw[i] = s
	}
	norm := proxy.Normalize(raw) // norm[k] belongs to representative cids[k]
	if ledger != nil {
		ledger.ChargeInference(len(o.cids))
	}

	res := &Result{
		RecallScores:    make(map[string]float64, len(o.names)),
		ProxyScores:     make(map[string]float64, len(o.names)),
		Clustering:      o.Clustering,
		Representatives: o.reps,
		ScoredModels:    len(o.cids),
	}

	scores := make([]float64, len(o.names))
	for i, name := range o.names {
		var p float64
		if k := o.repOf[i]; k >= 0 {
			// Eq. 3: a member of a non-singleton cluster inherits its
			// representative's proxy score (in the degenerate
			// all-singleton fallback every model was scored directly).
			p = norm[k]
		} else {
			// Eq. 4: propagate from the representatives, decayed by the
			// precomputed Eq. 1 similarities, summed in cids order.
			var sum float64
			for k, sim := range o.sims[i] {
				sum += float64(sim * norm[k])
			}
			p = sum / float64(len(o.cids))
		}
		res.ProxyScores[name] = p
		scores[i] = o.avgAcc[i] * p
		res.RecallScores[name] = scores[i]
	}

	order := numeric.ArgSortDesc(scores)
	k := o.opts.K
	if k > len(order) {
		k = len(order)
	}
	for _, i := range order[:k] {
		res.Recalled = append(res.Recalled, o.names[i])
	}
	return res, nil
}

// RandomRecall returns K models drawn uniformly without replacement — the
// baseline of Fig. 5.
func RandomRecall(m *perfmatrix.Matrix, k int, rng *numeric.RNG) []string {
	names := m.Models
	if k > len(names) {
		k = len(names)
	}
	perm := rng.Perm(len(names))
	out := make([]string, 0, k)
	for _, i := range perm[:k] {
		out = append(out, names[i])
	}
	return out
}

// BruteForceScores computes the proxy score for every model directly (no
// clustering) — the ablation baseline for representative-only scoring.
func BruteForceScores(repo *modelhub.Repository, target *datahub.Dataset, scorer proxy.Scorer, ledger *trainer.Ledger) (map[string]float64, error) {
	models := repo.Models()
	raw := make([]float64, len(models))
	for i, model := range models {
		s, err := scorer.Score(model, target)
		if err != nil {
			return nil, err
		}
		raw[i] = s
	}
	if ledger != nil {
		ledger.ChargeInference(len(models))
	}
	norm := proxy.Normalize(raw)
	out := make(map[string]float64, len(models))
	for i, model := range models {
		out[model.Name] = norm[i]
	}
	return out, nil
}
