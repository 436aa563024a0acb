package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric over a workload's runs.
func values(runs []result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict judges b against a for one end-to-end metric: worse when b's
// median is worse than a's by more than the bound; unresolved when it is
// not, but either side's own run-to-run spread exceeds the bound, so "no
// regression" cannot be told from noise (a count that must repeat exactly
// and does not lands here too); ok otherwise.
func verdict(def metricDef, a, b []float64) (change float64, status string) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma
	worsening := change
	if def.Better == "higher" {
		worsening = -change
	}
	switch {
	case worsening > def.Bound:
		return change, "worse"
	case math.Max(spread(a), spread(b)) > def.Bound, def.Bound <= 0.001 && !(sameCount(a) && sameCount(b)):
		return change, "unresolved"
	}
	return change, "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files: both medians with their run counts, the change as a share of
// the first file's median, the metric's bound and the verdict. It reports
// whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	fa, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if fa.Seconds != fb.Seconds || fa.Short != fb.Short || fa.GOMAXPROCS != fb.GOMAXPROCS {
		fmt.Fprintf(w, "note: settings differ (seconds %d vs %d, short %v vs %v, gomaxprocs %d vs %d)\n",
			fa.Seconds, fb.Seconds, fa.Short, fb.Short, fa.GOMAXPROCS, fb.GOMAXPROCS)
	}
	fmt.Fprintf(w, "%-13s %-18s %16s %16s  %-26s %6s  %s\n", "workload", "metric", "a median (runs)", "b median (runs)", "change", "bound", "verdict")
	anyWorse := false
	for _, wl := range workloads {
		ra, rb := fa.Workloads[wl.Name], fb.Workloads[wl.Name]
		for _, def := range endToEnd {
			a, b := values(ra, def.Name), values(rb, def.Name)
			if len(a) == 0 || len(b) == 0 {
				return false, fmt.Errorf("%s %s: missing from a result file (%d vs %d runs)", wl.Name, def.Name, len(a), len(b))
			}
			change, status := verdict(def, a, b)
			anyWorse = anyWorse || status == "worse"
			fmt.Fprintf(w, "%-13s %-18s %12.4f (%d) %12.4f (%d)  %+7.2f%% of %.4f %-6s %5.1f%%  %s\n",
				wl.Name, def.Name, median(a), len(a), median(b), len(b), change*100, median(a), def.Unit, def.Bound*100, status)
		}
	}
	return anyWorse, nil
}
