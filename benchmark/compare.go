package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Comparing two result files: every end-to-end metric on every workload
// gets its own row with both medians, the ratio, the bound, and a verdict.
// The rule is the choosing-metrics guide's: b regresses when its median is
// worse than a's by more than the bound; when either side's run-to-run
// spread (quartile distance over median) is wider than the bound the metric
// is unresolved, unless every run of b reads better than every run of a.

const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// values collects one metric across a workload's runs.
func values(runs []Result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// worsening is how much worse b is than a as a share of a (negative when b
// is better), given which direction is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if worsening(x, y, better) >= 0 {
				return false
			}
		}
	}
	return true
}

func judge(a, b []float64, d metricDef) (verdict string, worse, widest float64) {
	worse = worsening(median(a), median(b), d.Better)
	widest = spread(a)
	if s := spread(b); s > widest {
		widest = s
	}
	switch {
	case widest > d.Bound && !allBetter(a, b, d.Better):
		return verdictUnresolved, worse, widest
	case worse > d.Bound:
		return verdictRegression, worse, widest
	}
	return verdictOK, worse, widest
}

func readRunFile(path string) (runFile, error) {
	var f runFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints the table and returns the exit code: 1 when any
// metric regressed or an operation failed on either side, 2 on unusable
// input, else 0.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, err := readRunFile(pathA)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	b, err := readRunFile(pathB)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	return compareRuns(a, b, w)
}

func compareRuns(a, b runFile, w io.Writer) int {
	fmt.Fprintf(w, "a: commit %s, seed %d, %gs, %d CPUs, GOMAXPROCS %d\n", a.Provenance.Commit, a.Provenance.Seed, a.Provenance.Seconds, a.Provenance.NumCPU, a.Provenance.GOMAXPROCS)
	fmt.Fprintf(w, "b: commit %s, seed %d, %gs, %d CPUs, GOMAXPROCS %d\n", b.Provenance.Commit, b.Provenance.Seed, b.Provenance.Seconds, b.Provenance.NumCPU, b.Provenance.GOMAXPROCS)
	fmt.Fprintf(w, "%-13s %-12s %12s %12s %8s %7s %7s %5s  %s\n", "workload", "metric", "a median", "b median", "b/a", "bound", "spread", "runs", "verdict")
	code := 0
	for _, wl := range workloads {
		ra, rb := a.Runs[wl.Name], b.Runs[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, _, widest := judge(va, vb, d)
			if verdict == verdictRegression {
				code = 1
			}
			ratio := 0.0
			if ma := median(va); ma != 0 {
				ratio = median(vb) / ma
			}
			shown := "    n/a"
			if len(va) > 1 || len(vb) > 1 {
				shown = fmt.Sprintf("%6.1f%%", widest*100)
			}
			fmt.Fprintf(w, "%-13s %-12s %12.4f %12.4f %8.4f %6.1f%% %s %2d/%-2d  %s\n",
				wl.Name, d.Name, median(va), median(vb), ratio, d.Bound*100, shown, len(va), len(vb), verdict)
		}
		for i, runs := range [][]Result{ra, rb} {
			attempted, failed := 0, 0
			for _, r := range runs {
				attempted, failed = attempted+r.Attempted, failed+r.Failed
			}
			if failed > 0 {
				fmt.Fprintf(w, "%-13s fail_share on %s: %d of %d operations failed  %s\n", wl.Name, "ab"[i:i+1], failed, attempted, verdictRegression)
				code = 1
			}
		}
	}
	return code
}
