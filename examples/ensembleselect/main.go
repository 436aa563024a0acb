// Ensemble selection (§VII / the Palette line of work the paper cites):
// instead of keeping a single winner, fine-selection can stop filtering
// at k survivors, train them all to budget, and combine their predictions
// by soft voting — trading a few extra epochs for accuracy above any
// single model.
//
//	go run ./examples/ensembleselect
package main

import (
	"context"

	"fmt"
	"log"

	"twophase/internal/core"
	"twophase/internal/datahub"
	"twophase/internal/recall"
	"twophase/internal/selection"
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

	rr, err := recall.CoarseRecall(fw.Matrix, fw.Repo, target, fw.Recall, nil)
	if err != nil {
		log.Fatal(err)
	}
	cand, err := fw.Repo.Subset(rr.Recalled)
	if err != nil {
		log.Fatal(err)
	}
	opts := selection.FineSelectOptions{
		Config: selection.Config{HP: fw.HP, Seed: fw.Seed, Salt: "two-phase"},
		Matrix: fw.Matrix,
	}

	single, err := selection.FineSelect(context.Background(), cand.Models(), target, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single selection: %s (test %.3f) in %d epochs\n",
		single.Winner, single.WinnerTest, single.Ledger.TrainEpochs())

	for _, k := range []int{2, 3, 5} {
		ens, err := selection.EnsembleSelect(context.Background(), cand.Models(), target, opts, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("k=%d ensemble: test %.3f (best member %.3f) in %d epochs, members:\n",
			k, ens.WinnerTest, ens.BestMemberTest, ens.Ledger.TrainEpochs())
		for _, m := range ens.Members {
			fmt.Printf("   - %s\n", m)
		}
	}
}
