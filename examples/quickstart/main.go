// Quickstart: build the offline phase once, then select a model for a new
// target task in a handful of training epochs.
//
//	go run ./examples/quickstart
package main

import (
	"context"

	"fmt"
	"log"

	"twophase/internal/core"
	"twophase/internal/datahub"
)

func main() {
	// Offline phase: materialize the 40-model NLP repository, fine-tune
	// every model on the 24 benchmark datasets, and keep the performance
	// matrix plus convergence records. In production this runs once and
	// is persisted (see the serve CLI's -store flag).
	fw, err := core.Build(core.Options{Task: datahub.TaskNLP, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline: %d models x %d benchmarks fine-tuned (%d epochs each)\n",
		len(fw.Matrix.Models), len(fw.Matrix.Datasets), fw.HP.Epochs)

	// Online phase: a new task arrives — Twitter sentiment. Coarse
	// recall scores only the cluster representatives against it, then
	// fine selection trains the 10 recalled models with trend-guided
	// early filtering.
	report, err := fw.SelectByName(context.Background(), "tweet_eval")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("recalled %d candidates with %d proxy inferences\n",
		len(report.Recall.Recalled), report.Recall.ScoredModels)
	fmt.Printf("selected: %s\n", report.Outcome.Winner)
	fmt.Printf("held-out test accuracy: %.3f\n", report.Outcome.WinnerTest)
	fmt.Printf("total cost: %s (brute force would cost %d epochs)\n",
		report.Ledger.String(), fw.Repo.Len()*fw.HP.Epochs)
}
