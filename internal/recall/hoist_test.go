package recall

import (
	"math"
	"reflect"
	"testing"

	"twophase/internal/cluster"
	"twophase/internal/datahub"
	"twophase/internal/modelhub"
	"twophase/internal/numeric"
	"twophase/internal/perfmatrix"
	"twophase/internal/proxy"
	"twophase/internal/synth"
)

// referenceRecall is Recall as it was before the Eq. 1 similarities moved
// offline: group the clustering and call the distance inline, per
// singleton and representative, on every request. It rebuilds what it
// needs from the matrix, so it shares no precomputed table with o.
func referenceRecall(t *testing.T, m *perfmatrix.Matrix, o *Offline, repo *modelhub.Repository, target *datahub.Dataset) *Result {
	t.Helper()
	names, vecs, avgAcc, err := matrixVectors(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	dist := cluster.TopKDistance(o.opts.SimilarityK)
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}

	raw := make([]float64, len(o.cids))
	for i, cid := range o.cids {
		model, err := repo.Get(o.reps[cid])
		if err != nil {
			t.Fatal(err)
		}
		if raw[i], err = o.opts.Scorer.Score(model, target); err != nil {
			t.Fatal(err)
		}
	}
	norm := proxy.Normalize(raw)
	repProxy := make(map[int]float64, len(o.cids))
	for i, cid := range o.cids {
		repProxy[cid] = norm[i]
	}
	res := &Result{
		RecallScores:    make(map[string]float64, len(names)),
		ProxyScores:     make(map[string]float64, len(names)),
		Clustering:      o.Clustering,
		Representatives: o.reps,
		ScoredModels:    len(o.cids),
	}
	groups := o.Clustering.Groups()
	scores := make([]float64, len(names))
	for i, name := range names {
		cid := o.Clustering.Assign[i]
		var p float64
		if len(groups[cid]) > 1 {
			p = repProxy[cid]
		} else if pr, ok := repProxy[cid]; ok {
			p = pr
		} else {
			var sum float64
			for _, rc := range o.cids {
				sim := 1 - dist(vecs.Row(i), vecs.Row(idx[o.reps[rc]]))
				if sim < 0 {
					sim = 0
				}
				sum += sim * repProxy[rc]
			}
			p = sum / float64(len(o.cids))
		}
		res.ProxyScores[name] = p
		scores[i] = avgAcc[i] * p
		res.RecallScores[name] = scores[i]
	}
	order := numeric.ArgSortDesc(scores)
	k := o.opts.K
	if k > len(order) {
		k = len(order)
	}
	for _, i := range order[:k] {
		res.Recalled = append(res.Recalled, names[i])
	}
	return res
}

// TestRecallMatchesInlineDistanceReference: with the similarity table
// precomputed, Recall must equal the inline-distance reference on every
// target, bit for bit, for an Offline that clustered the repository and
// for one rehydrated from the artifact — at the default cut (clusters and
// propagating singletons both present) and at a cut so fine that every
// model is a singleton and all are scored directly.
func TestRecallMatchesInlineDistanceReference(t *testing.T) {
	m, repo, _ := fixture(t)
	w := synth.NewWorld(42)
	var targets []*datahub.Dataset
	for _, spec := range datahub.NLPTargets() {
		d, err := datahub.Generate(w, spec, datahub.Sizes{Train: 80, Val: 50, Test: 80})
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, d)
	}

	for _, c := range []struct {
		name          string
		opts          Options
		allSingletons bool
	}{
		{"default cut", Options{K: 4}, false},
		{"all singletons", Options{K: 4, Threshold: 1e-12}, true},
	} {
		built, err := PrepareOfflineWith(m, c.opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Rehydrate(m, c.opts, built.Artifact(m.Task, m.Seed))
		if err != nil {
			t.Fatal(err)
		}

		// The case must exercise the branches it is named for.
		direct, propagated := 0, 0
		for _, k := range built.repOf {
			if k >= 0 {
				direct++
			} else {
				propagated++
			}
		}
		if c.allSingletons {
			if built.Clustering.K != len(m.Models) || propagated != 0 || len(built.cids) != len(m.Models) {
				t.Fatalf("%s: %d clusters, %d scored, %d propagated over %d models", c.name, built.Clustering.K, len(built.cids), propagated, len(m.Models))
			}
		} else if direct == 0 || propagated == 0 {
			t.Fatalf("%s: %d models take a representative's score and %d are propagated to; the fixture must have both", c.name, direct, propagated)
		}

		for _, target := range targets {
			want := referenceRecall(t, m, built, repo, target)
			for _, o := range []struct {
				name string
				off  *Offline
			}{{"built", built}, {"rehydrated", restored}} {
				got, err := o.off.Recall(repo, target, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %s Offline on %s: recall differs from the inline-distance reference", c.name, o.name, target.Name)
				}
				for name, s := range want.RecallScores {
					if math.Float64bits(got.RecallScores[name]) != math.Float64bits(s) ||
						math.Float64bits(got.ProxyScores[name]) != math.Float64bits(want.ProxyScores[name]) {
						t.Fatalf("%s, %s Offline on %s: %s scores differ in the last bits", c.name, o.name, target.Name, name)
					}
				}
			}
		}
	}
}
