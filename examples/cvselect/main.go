// CV scenario with a domain shift: select a vision model for chest X-ray
// classification — a medical domain no repository model was trained on —
// demonstrating the framework's out-of-domain behaviour (§V.E): the prior
// accuracy term and generic-capability models carry the recall, and fine
// selection still lands near the brute-force choice.
//
//	go run ./examples/cvselect
package main

import (
	"context"

	"fmt"
	"log"

	"twophase/internal/core"
	"twophase/internal/datahub"
)

func main() {
	fw, err := core.Build(core.Options{Task: datahub.TaskCV, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	target, err := fw.Catalog.Get("trpakov/chest-xray-classification")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("target: %s — %s (%d classes)\n", target.Name, target.Description, target.Classes)
	fmt.Println("no repository model was pre-trained on medical imaging")

	report, err := fw.Select(context.Background(), target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrecalled candidates (out-of-domain recall rides on prior accuracy):")
	for i, name := range report.Recall.Recalled {
		fmt.Printf("  %2d. %s\n", i+1, name)
	}
	fmt.Println("\nfine-selection stages:")
	for stage, pool := range report.Outcome.Stages {
		fmt.Printf("  epoch %d: %d models in training\n", stage+1, len(pool))
	}
	fmt.Printf("\nselected: %s (test %.3f) in %.1f epochs\n",
		report.Outcome.Winner, report.Outcome.WinnerTest, report.TotalEpochs())

	bf, err := fw.SelectWith(context.Background(), target, core.SelectOptions{Strategy: core.StrategyBF})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("brute force: %s (test %.3f) in %d epochs — %.2fx slower\n",
		bf.Outcome.Winner, bf.Outcome.WinnerTest, bf.Ledger.TrainEpochs(),
		float64(bf.Ledger.TrainEpochs())/report.TotalEpochs())
}
