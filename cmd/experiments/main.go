// Command experiments regenerates the paper's tables and figures on the
// synthetic substrate and checks the paper's claims against them.
//
// Usage:
//
//	experiments [-seed LIST] [-only id1,id2,...] [-list]
//
// Without -only it runs every experiment in paper order. Experiment ids
// are the ones -list prints (fig1, tab1, ..., extLSQ). -seed takes one
// world seed or a list of seeds and inclusive ranges ("1-10,42"). Given
// one seed, every table prints with its notes and computed claims, each
// marked [holds] or [DEVIATES]. Given more than one, the tables are not
// printed: the output is the claim ledger, one row per claim with its
// value's mean and min–max, how many seeds it holds at and the seeds where
// it deviates. EXPERIMENTS.md is the output of `-seed 1-10,42`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"twophase/internal/experiments"
)

func main() {
	seed := flag.String("seed", strconv.Itoa(experiments.DefaultSeed), `world seed, or a list of seeds and ranges ("1-10,42") to print the claim ledger over`)
	only := flag.String("only", "", "comma-separated experiment ids to run")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if err := run(os.Stdout, *seed, *only, *list); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, seedList, only string, list bool) error {
	if list {
		for _, ex := range experiments.All() {
			fmt.Fprintf(w, "%-12s %s\n", ex.ID, ex.Paper)
		}
		return nil
	}
	seeds, err := experiments.ParseSeeds(seedList)
	if err != nil {
		return err
	}

	var selected []experiments.Experiment
	if only == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(only, ",") {
			ex, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, ex)
		}
	}

	var ledger experiments.Ledger
	for _, seed := range seeds {
		env := experiments.NewEnv(seed)
		for _, ex := range selected {
			table, err := ex.Run(env)
			if err != nil {
				return fmt.Errorf("experiment %s at seed %d: %w", ex.ID, seed, err)
			}
			if len(seeds) == 1 {
				err = table.Render(w)
			} else {
				err = ledger.Add(seed, table)
			}
			if err != nil {
				return err
			}
		}
	}
	if len(seeds) == 1 {
		return nil
	}
	return ledger.Table().Render(w)
}
