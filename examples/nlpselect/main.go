// NLP scenario: the paper's motivating workload — pick a pre-trained
// language model for an MNLI-style inference task from a 40-model
// repository, and compare the two-phase pipeline against brute force and
// successive halving on both selection quality and epoch cost.
//
//	go run ./examples/nlpselect
package main

import (
	"context"

	"fmt"
	"log"
	"sort"

	"twophase/internal/core"
	"twophase/internal/datahub"
)

func main() {
	fw, err := core.Build(core.Options{Task: datahub.TaskNLP, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	target, err := fw.Catalog.Get("LysandreJik/glue-mnli-train")
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth for context: what would every model achieve?
	oracle, err := fw.OracleAccuracies(context.Background(), target)
	if err != nil {
		log.Fatal(err)
	}
	type mv struct {
		name string
		acc  float64
	}
	var all []mv
	for n, a := range oracle {
		all = append(all, mv{n, a})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].acc > all[j].acc })
	fmt.Println("ground truth (top 5 of the repository):")
	for _, m := range all[:5] {
		fmt.Printf("  %.3f  %s\n", m.acc, m.name)
	}
	fmt.Printf("repository spread: best %.3f, median %.3f, worst %.3f\n\n",
		all[0].acc, all[len(all)/2].acc, all[len(all)-1].acc)

	// Two-phase selection.
	report, err := fw.Select(context.Background(), target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-phase: winner %s (test %.3f) in %.1f epochs\n",
		report.Outcome.Winner, report.Outcome.WinnerTest, report.TotalEpochs())

	// Baselines.
	bf, err := fw.SelectWith(context.Background(), target, core.SelectOptions{Strategy: core.StrategyBF})
	if err != nil {
		log.Fatal(err)
	}
	sh, err := fw.SelectWith(context.Background(), target, core.SelectOptions{Strategy: core.StrategySH})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("brute force: winner %s (test %.3f) in %d epochs\n",
		bf.Outcome.Winner, bf.Outcome.WinnerTest, bf.Ledger.TrainEpochs())
	fmt.Printf("succ. halving: winner %s (test %.3f) in %d epochs\n",
		sh.Outcome.Winner, sh.Outcome.WinnerTest, sh.Ledger.TrainEpochs())
	fmt.Printf("\nspeedup: %.2fx vs BF, %.2fx vs SH at comparable accuracy\n",
		float64(bf.Ledger.TrainEpochs())/report.TotalEpochs(),
		float64(sh.Ledger.TrainEpochs())/report.TotalEpochs())
}
