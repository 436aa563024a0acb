// Command twophase runs the two-phase model-selection pipeline end to end:
// build the offline performance matrix, then select a model for a target
// dataset, reporting the recalled candidates, the per-stage survivors, the
// winner, and the epoch cost against the BF/SH baselines.
//
// Usage:
//
//	twophase -task nlp -target tweet_eval [-seed 42] [-k 10]
//	         [-baselines] [-list-targets] [-plan]
//
// The offline phase is rebuilt on every run; cmd/serve -store is the CLI
// that persists and reuses it.
package main

import (
	"context"

	"flag"
	"fmt"
	"os"
	"strings"

	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/selection"
	"twophase/internal/trainer"
)

func main() {
	task := flag.String("task", datahub.TaskNLP, `task family: "nlp" or "cv"`)
	target := flag.String("target", "", "target dataset name (see -list-targets)")
	seed := flag.Uint64("seed", 42, "world seed")
	k := flag.Int("k", 0, "number of models to recall (0 = paper default 10)")
	baselines := flag.Bool("baselines", false, "also run brute-force and successive-halving baselines")
	listTargets := flag.Bool("list-targets", false, "list target datasets for the task and exit")
	plan := flag.Bool("plan", false, "print the cost model's strategy plan and exit (no training)")
	flag.Parse()

	if *plan {
		if err := printPlan(*task, *k); err != nil {
			fmt.Fprintln(os.Stderr, "twophase:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*task, *target, *seed, *k, *baselines, *listTargets); err != nil {
		fmt.Fprintln(os.Stderr, "twophase:", err)
		os.Exit(1)
	}
}

// printPlan uses the Shift-style cost model (selection.CheapestStrategy)
// to predict strategy costs before any training is spent.
func printPlan(task string, k int) error {
	hp := trainer.Default(task)
	pools := []int{40, 10}
	if task == datahub.TaskCV {
		pools[0] = 30
	}
	if k > 0 {
		pools[1] = k
	}
	for _, pool := range pools {
		bf := selection.PredictBruteForceEpochs(pool, hp.Epochs)
		sh := selection.PredictSHEpochs(pool, hp.Epochs, 1)
		lo, hi := selection.PredictFSEpochsRange(pool, hp.Epochs, 1)
		best, cost := selection.CheapestStrategy(pool, hp.Epochs, 1, true)
		fmt.Printf("pool %2d models x %d epochs: BF=%d SH=%d FS=[%d,%d] -> %s (~%d epochs)\n",
			pool, hp.Epochs, bf, sh, lo, hi, best, cost)
	}
	return nil
}

func run(task, target string, seed uint64, k int, baselines, listTargets bool) error {
	opts := core.Options{Task: task, Seed: seed}
	if k > 0 {
		opts.Recall.K = k
	}
	fw, err := core.Build(opts)
	if err != nil {
		return err
	}

	if listTargets {
		for _, d := range fw.Catalog.Targets() {
			fmt.Printf("%-40s %d classes  %s\n", d.Name, d.Classes, d.Description)
		}
		return nil
	}
	if target == "" {
		return fmt.Errorf("missing -target (use -list-targets to see options)")
	}

	d, err := fw.Catalog.Get(target)
	if err != nil {
		return err
	}
	report, err := fw.Select(context.Background(), d)
	if err != nil {
		return err
	}

	fmt.Printf("target: %s (%d classes)\n", d.Name, d.Classes)
	fmt.Printf("coarse recall: %d clusters, %d proxy inferences, recalled %d models:\n",
		report.Recall.Clustering.K, report.Recall.ScoredModels, len(report.Recall.Recalled))
	for i, name := range report.Recall.Recalled {
		fmt.Printf("  %2d. %-60s recall score %.3f\n", i+1, name, report.Recall.RecallScores[name])
	}
	fmt.Println("fine selection stages:")
	for stage, pool := range report.Outcome.Stages {
		fmt.Printf("  epoch %d: %2d models (%s)\n", stage+1, len(pool), strings.Join(shorten(pool, 3), ", "))
	}
	fmt.Printf("winner: %s\n", report.Outcome.Winner)
	fmt.Printf("  final validation accuracy: %.3f\n", report.Outcome.WinnerVal)
	fmt.Printf("  held-out test accuracy:    %.3f\n", report.Outcome.WinnerTest)
	fmt.Printf("cost: %s\n", report.Ledger.String())

	if baselines {
		bf, err := fw.BruteForce(context.Background(), d)
		if err != nil {
			return err
		}
		sh, err := fw.SuccessiveHalving(context.Background(), d)
		if err != nil {
			return err
		}
		fmt.Printf("baselines over all %d models:\n", fw.Repo.Len())
		fmt.Printf("  brute force:        %3d epochs, winner %s (test %.3f)\n",
			bf.Ledger.TrainEpochs(), bf.Winner, bf.WinnerTest)
		fmt.Printf("  successive halving: %3d epochs, winner %s (test %.3f)\n",
			sh.Ledger.TrainEpochs(), sh.Winner, sh.WinnerTest)
		fmt.Printf("  two-phase speedup:  %.2fx vs BF, %.2fx vs SH\n",
			float64(bf.Ledger.TrainEpochs())/report.TotalEpochs(),
			float64(sh.Ledger.TrainEpochs())/report.TotalEpochs())
	}
	return nil
}

func shorten(pool []string, max int) []string {
	out := make([]string, 0, max+1)
	for i, n := range pool {
		if i == max {
			out = append(out, fmt.Sprintf("+%d more", len(pool)-max))
			break
		}
		if idx := strings.LastIndex(n, "/"); idx >= 0 {
			n = n[idx+1:]
		}
		out = append(out, n)
	}
	return out
}
