// Command bench is the repository's one benchmark. It stands the real
// serving stack up in this process — two backends over a shared store and a
// gateway, on loopback HTTP — drives a fixed, seed-generated request cycle
// through the gateway in a closed loop, verifies every answer against
// frameworks it builds itself, and prints every metric by name and unit.
// With -trace 1 it then walks each request down a ladder of public entry
// points (gateway → backend HTTP → handler → dispatcher → service.Do →
// core.SelectWith → recall / fine-select) so that each layer gets a number
// and the numbers add up to the end-to-end one. See README.md.
//
// Usage, from the repository root:
//
//	go run ./bench -workload batch_hot -seed 1 -seconds 25 -trace 0
//	go run ./bench [-runs 3] [-out FILE]      all workloads, each run in its own process
//	go run ./bench -compare a.json b.json     two result files, metric by metric
//	go run ./bench -manifest                  print BENCHMARK.json from the tables
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// defaultSeconds is the measured phase's length, BENCHMARK.json's
// run_seconds: the longest the driver's time limit leaves room for over
// three workloads, because how steady a timing reads on a shared machine is
// a matter of how long the run had to meet a quiet stretch. warmUp is the
// untimed phase before it; the fleet is set up setupsBefore times before the
// run and setupsAfter times after it.
const (
	defaultSeconds = 25
	warmUp         = time.Second
	setupsBefore   = 2
	setupsAfter    = 1
)

func main() {
	var (
		name          = flag.String("workload", "", "run this one workload in this process (default: all, one child process each)")
		seed          = flag.Uint64("seed", 1, "workload seed: permutes world and target order of the request cycle")
		seconds       = flag.Int("seconds", defaultSeconds, "length of the measured phase")
		trace         = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, adding the traced pass; 2: both")
		short         = flag.Bool("short", false, "test-size worlds, one set-up and a brief traced pass: a smoke run, not a measurement")
		runs          = flag.Int("runs", 1, "all-workloads mode: fresh-process runs per workload")
		out           = flag.String("out", filepath.Join(outDir, "result.json"), "all-workloads mode: result file")
		compare       = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 if any metric is worse")
		printManifest = flag.Bool("manifest", false, "print BENCHMARK.json generated from the metric and workload tables")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case *printManifest:
		var doc []byte
		if doc, err = manifest(); err == nil {
			_, err = os.Stdout.Write(doc)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *name != "":
		err = single(ctx, *name, *seed, *seconds, *trace, *short)
	default:
		err = suite(ctx, *seed, *seconds, *runs, *short, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// single runs one workload here and prints the metric table, then the
// result as the last line of standard output.
func single(ctx context.Context, name string, seed uint64, seconds, trace int, short bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 || trace < 0 || trace > 2 {
		return fmt.Errorf("-seconds must be at least 1 and -trace one of 0, 1, 2")
	}
	cfg := config{
		Workload: w, Seed: seed, WarmUp: warmUp, Measure: time.Duration(seconds) * time.Second,
		Setups: setupsBefore, SetupsAfter: setupsAfter,
		EndToEnd: trace != 1, PerLayer: trace != 0,
	}
	if short {
		cfg.Workload, cfg.WarmUp, cfg.Setups, cfg.SetupsAfter = w.short(), 0, 1, 0
	}
	res, all, err := runWorkload(ctx, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	all.print(os.Stdout, name)
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("%s: a metric is not a number: %w", name, err)
	}
	fmt.Printf("%s\n", line)
	return nil
}

// resultFile is what the all-workloads mode writes and -compare reads: every
// run's result line per workload, with what the numbers depend on.
type resultFile struct {
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Seed       uint64              `json:"seed"`
	Seconds    int                 `json:"seconds"`
	Short      bool                `json:"short,omitempty"`
	Workloads  map[string][]result `json:"workloads"`
}

// suite runs every workload in its own child process, so heap, GC state and
// per-model feature caches never leak from one workload into the next, and
// collects the children's result lines into one file.
func suite(ctx context.Context, seed uint64, seconds, runs int, short bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Seconds: seconds, Short: short, Workloads: make(map[string][]result),
	}
	for run := 0; run < runs; run++ {
		for _, w := range workloads {
			args := []string{"-workload", w.Name, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "2"}
			if short {
				args = append(args, "-short")
			}
			cmd := exec.CommandContext(ctx, self, args...)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", w.Name, run, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s run %d: result line: %w", w.Name, run, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: %d of %d requests failed", w.Name, run, res.Failed, res.Attempted)
			}
			os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
			fmt.Println()
			file.Workloads[w.Name] = append(file.Workloads[w.Name], res)
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
