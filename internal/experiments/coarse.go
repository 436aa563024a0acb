package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"twophase/internal/cluster"
	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/numeric"
	"twophase/internal/recall"
	"twophase/internal/textsim"
)

// fig1Datasets mirrors the paper's Fig. 1 pair: the MNLI target for NLP
// and the CUB dataset for CV.
var fig1Datasets = map[string]string{
	datahub.TaskNLP: "LysandreJik/glue-mnli-train",
	datahub.TaskCV:  "alkzar90/CC6204-Hackaton-Cub-Dataset",
}

// fig1 reproduces Fig. 1: fine-tuning accuracy of every repository model
// on one NLP and one CV dataset, sorted descending — demonstrating that
// well-suited models are markedly outnumbered by poor ones.
func fig1(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Fig. 1 — accuracy of all models, sorted desc",
		Header: []string{"task", "dataset", "rank", "model", "accuracy"},
	}
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		dsName := fig1Datasets[task]
		oracle, err := e.Oracle(task, dsName)
		if err != nil {
			return nil, err
		}
		type mv struct {
			name string
			acc  float64
		}
		var all []mv
		for n, a := range oracle {
			all = append(all, mv{n, a})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].acc != all[j].acc {
				return all[i].acc > all[j].acc
			}
			return all[i].name < all[j].name
		})
		for i, m := range all {
			t.AddRow(task, dsName, i, m.name, m.acc)
		}
		spread := all[0].acc - all[len(all)-1].acc
		median := all[len(all)/2].acc
		t.Note("%s: best %.3f, median %.3f, worst %.3f (spread %.3f)",
			task, all[0].acc, median, all[len(all)-1].acc, spread)
	}
	return t, nil
}

// cardVectors embeds every model card into one frame and returns its row
// views.
func cardVectors(fw *core.Framework) ([][]float64, error) {
	cards := make([]string, 0, len(fw.Matrix.Models))
	for _, name := range fw.Matrix.Models {
		m, err := fw.Repo.Get(name)
		if err != nil {
			return nil, err
		}
		cards = append(cards, m.Card())
	}
	return textsim.EmbedAll(cards).Rows2D(), nil
}

// table1 reproduces Table I: performance-based vs text-based similarity
// under hierarchical clustering and k-means. All four clusterings are
// scored with the *behavioural* silhouette — Eq. 1 distance over
// performance vectors — because the question Table I answers is which
// similarity groups models that actually train alike (the paper's own
// reading: "models with similar model names may also vary").
func table1(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Table I — clustering methods comparison (behavioural silhouette)",
		Header: []string{"similarity", "algorithm", "NLP", "CV"},
	}
	tasks := []string{datahub.TaskNLP, datahub.TaskCV}
	// Per task, in row order: performance-based hierarchical and k-means,
	// then text-based hierarchical and k-means.
	var sil [2][4]float64
	for ti, task := range tasks {
		fw, err := e.Framework(task)
		if err != nil {
			return nil, err
		}
		// The served clustering is the reference: it fixes K so all four
		// cells cluster at the same granularity.
		perf := fw.Matrix.Vectors().Rows2D()
		ref := fw.Offline.Clustering
		cards, err := cardVectors(fw)
		if err != nil {
			return nil, err
		}
		k := ref.K
		for i, cl := range []cluster.Clustering{
			ref,
			cluster.KMeans(perf, k, numeric.NewNamedRNG(e.Seed, "tab1-kmeans-perf", task), 100),
			cluster.Agglomerative(cards, cluster.Cosine, 0, k, 1),
			cluster.KMeans(cards, k, numeric.NewNamedRNG(e.Seed, "tab1-kmeans-text", task), 100),
		} {
			sil[ti][i] = cluster.Silhouette(perf, cl, cluster.TopKDistance(recall.SimilarityK))
		}
	}
	for i, label := range [][2]string{
		{"performance-based", "hierarchical"}, {"performance-based", "k-means"},
		{"text-based", "hierarchical"}, {"text-based", "k-means"},
	} {
		t.AddRow(label[0], label[1], sil[0][i], sil[1][i])
	}
	perfOverText, hierOverKM := math.Inf(1), math.Inf(1)
	for _, s := range sil {
		perfOverText = min(perfOverText, s[0]-s[2], s[1]-s[3])
		hierOverKM = min(hierOverKM, s[0]-s[1])
	}
	t.Claim("tab1.perf-beats-text", perfOverText > 0, perfOverText,
		"performance-based silhouette > text-based for every (task, algorithm); value: smallest margin")
	t.Claim("tab1.hier-beats-kmeans", hierOverKM > 0, hierOverKM,
		"on performance similarity, hierarchical silhouette > k-means on every task; value: smallest margin")
	return t, nil
}

// table2 reproduces Table II: the membership of every non-singleton model
// cluster under hierarchical clustering with Eq. 1 similarity.
func table2(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Table II — non-singleton model clusters",
		Header: []string{"task", "cluster", "size", "members"},
	}
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		fw, err := e.Framework(task)
		if err != nil {
			return nil, err
		}
		cl := fw.Offline.Clustering
		names := fw.Matrix.Models
		id := 0
		covered := 0
		for _, g := range cl.NonSingletons() {
			id++
			members := make([]string, len(g))
			for i, idx := range g {
				members[i] = names[idx]
			}
			covered += len(g)
			t.AddRow(task, fmt.Sprintf("C%d", id), len(g), joinTrunc(members, 4))
		}
		t.Note("%s: %d non-singleton clusters covering %d/%d models", task, id, covered, len(names))
	}
	return t, nil
}

func joinTrunc(items []string, max int) string {
	if len(items) <= max {
		return strings.Join(items, ", ")
	}
	return strings.Join(items[:max], ", ") + fmt.Sprintf(", ... (+%d)", len(items)-max)
}

// table3 reproduces Table III: models in non-singleton clusters have
// higher average benchmark accuracy and contribute nearly all per-dataset
// best models.
func table3(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Table III — singleton vs non-singleton cluster performance",
		Header: []string{"task", "cluster type", "avg(acc)", "no. maximum(acc)"},
	}
	stronger, maxima := math.Inf(1), math.Inf(1)
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		fw, err := e.Framework(task)
		if err != nil {
			return nil, err
		}
		vecs := fw.Matrix.Vectors().Rows2D()
		cl := fw.Offline.Clustering
		names := fw.Matrix.Models

		inNonSingleton := make([]bool, len(names))
		for _, g := range cl.NonSingletons() {
			for _, i := range g {
				inNonSingleton[i] = true
			}
		}

		var nsAcc, sAcc []float64
		for i := range names {
			avg := numeric.Mean(vecs[i])
			if inNonSingleton[i] {
				nsAcc = append(nsAcc, avg)
			} else {
				sAcc = append(sAcc, avg)
			}
		}
		// count of per-benchmark best models per cluster type
		nsBest, sBest := 0, 0
		for d := range fw.Matrix.Datasets {
			best, bestAcc := -1, -1.0
			for i := range names {
				if vecs[i][d] > bestAcc {
					best, bestAcc = i, vecs[i][d]
				}
			}
			if inNonSingleton[best] {
				nsBest++
			} else {
				sBest++
			}
		}
		t.AddRow(task, "non-singleton", numeric.Mean(nsAcc), nsBest)
		t.AddRow(task, "singleton", numeric.Mean(sAcc), sBest)
		stronger = min(stronger, numeric.Mean(nsAcc)-numeric.Mean(sAcc))
		maxima = min(maxima, float64(nsBest)/float64(nsBest+sBest))
	}
	t.Claim("tab3.non-singleton-stronger", stronger > 0, stronger,
		"non-singleton avg(acc) > singleton avg(acc) on every task; value: smallest margin")
	t.Claim("tab3.non-singleton-maxima", maxima > 0.5, maxima,
		"non-singleton clusters hold more than half of the per-benchmark maxima on every task; value: smallest share")
	return t, nil
}

// fig5 reproduces Fig. 5: the average ground-truth accuracy of the top-K
// recalled models under coarse recall vs random recall, for each target.
func fig5(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Fig. 5 — avg accuracy of recalled models (coarse vs random)",
		Header: []string{"task", "dataset", "K", "coarse-recall", "random-recall"},
	}
	const randomDraws = 20
	wins, cells := 0, 0
	var coarseAll, randomAll []float64
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		fw, err := e.Framework(task)
		if err != nil {
			return nil, err
		}
		targets, err := e.Targets(task)
		if err != nil {
			return nil, err
		}
		opts := fw.Recall
		opts.K = fw.Repo.Len() // rank everything once, slice per K
		off, err := recall.Rehydrate(fw.Matrix, opts, fw.RecallArtifact())
		if err != nil {
			return nil, err
		}
		for _, d := range targets {
			oracle, err := e.Oracle(task, d.Name)
			if err != nil {
				return nil, err
			}
			rr, err := off.Recall(fw.Repo, d, nil)
			if err != nil {
				return nil, err
			}
			for _, k := range []int{3, 5, 10, 15, 20} {
				var coarse []float64
				for _, n := range rr.Recalled[:k] {
					coarse = append(coarse, oracle[n])
				}
				var random []float64
				for r := 0; r < randomDraws; r++ {
					rng := numeric.NewNamedRNG(e.Seed, "fig5-random", d.Name, fmt.Sprint(r))
					for _, n := range recall.RandomRecall(fw.Matrix, k, rng) {
						random = append(random, oracle[n])
					}
				}
				c, rd := numeric.Mean(coarse), numeric.Mean(random)
				t.AddRow(task, d.Name, k, c, rd)
				coarseAll, randomAll = append(coarseAll, c), append(randomAll, rd)
				cells++
				if c > rd {
					wins++
				}
			}
		}
	}
	share := float64(wins) / float64(cells)
	t.Claim("fig5.coarse-beats-random", share >= 0.6 && numeric.Mean(coarseAll) > numeric.Mean(randomAll), share,
		"coarse-recall > random-recall in the mean over all (dataset, K) cells and in at least 60%% of them; value: share of cells won")
	return t, nil
}

// tableX reproduces appendix Table X: the silhouette coefficient of
// hierarchical clustering as Eq. 1's parameter k varies.
func tableX(e *Env) (*Table, error) {
	t := &Table{
		Title:  "Appendix Table X — Eq. 1 parameter k selection",
		Header: []string{"task", "k", "silhouette"},
	}
	ks := map[string][]int{
		datahub.TaskNLP: {5, 10, 15},
		datahub.TaskCV:  {3, 4, 5},
	}
	for _, task := range []string{datahub.TaskNLP, datahub.TaskCV} {
		fw, err := e.Framework(task)
		if err != nil {
			return nil, err
		}
		vecs := fw.Matrix.Vectors().Rows2D()
		for _, k := range ks[task] {
			dist := cluster.TopKDistance(k)
			cl := fw.Offline.Clustering // served at k = SimilarityK
			if k != recall.SimilarityK {
				cl = cluster.Agglomerative(vecs, dist, fw.Recall.Threshold, 0, 1)
			}
			t.AddRow(task, k, cluster.Silhouette(vecs, cl, dist))
		}
	}
	t.Note("the paper finds the silhouette fluctuates within an acceptable range and fixes k=5")
	return t, nil
}
