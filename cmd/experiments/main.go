// Command experiments regenerates the paper's tables and figures on the
// synthetic substrate.
//
// Usage:
//
//	experiments [-seed N] [-only id1,id2,...] [-list] [-csv DIR]
//
// Without -only it runs every experiment in paper order. Experiment ids
// are the ones -list prints (fig1, tab1, ..., extRobust). With -csv, each
// table is additionally written as DIR/<id>.csv for plotting.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"twophase/internal/experiments"
)

func main() {
	seed := flag.Uint64("seed", experiments.DefaultSeed, "world seed")
	only := flag.String("only", "", "comma-separated experiment ids to run")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csvDir := flag.String("csv", "", "directory to also write per-experiment CSV files to")
	flag.Parse()

	if err := run(os.Stdout, *seed, *only, *list, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, seed uint64, only string, list bool, csvDir string) error {
	if list {
		for _, ex := range experiments.All() {
			fmt.Fprintf(w, "%-12s %s\n", ex.ID, ex.Paper)
		}
		return nil
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

	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return fmt.Errorf("create csv dir: %w", err)
		}
	}

	env := experiments.NewEnv(seed)
	for _, ex := range selected {
		table, err := ex.Run(env)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", ex.ID, err)
		}
		if err := table.Render(w); err != nil {
			return err
		}
		if csvDir != "" {
			if err := writeCSV(filepath.Join(csvDir, ex.ID+".csv"), table); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSV(path string, table *experiments.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write(table.Header); err != nil {
		return err
	}
	for _, row := range table.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
