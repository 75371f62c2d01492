// Command ugrapher-bench regenerates the paper's tables and figures on the
// simulator substrate.
//
// Usage:
//
//	ugrapher-bench list                 # show available experiment ids
//	ugrapher-bench fig13               # run one experiment
//	ugrapher-bench all                 # run every experiment in paper order
//	ugrapher-bench -quick -datasets CO,PR,AR fig1
//	ugrapher-bench -quick -json out.json all
//
// Output is aligned text, one table per experiment; EXPERIMENTS.md discusses
// the expected shapes. -json additionally writes one machine-readable summary
// record per experiment (id, datasets, rows, verifier verdict, and how long the
// table took to produce).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/schedule"
	"repro/internal/telemetry"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sweeps (fewer datasets, coarser simulation)")
	datasets := flag.String("datasets", "", "comma-separated dataset codes to restrict to (e.g. CO,PR,AR)")
	sample := flag.Int("sample", 0, "simulator sampled blocks per kernel (0 = default)")
	csvOut := flag.Bool("csv", false, "emit CSV instead of aligned text")
	jsonOut := flag.String("json", "", "write per-experiment JSON summary records to this file")
	timeout := flag.Duration("timeout", 0, "wall-clock budget, checked between experiments (0 = none); exceeding it exits with code 3")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto)")
	metricsPath := flag.String("metrics", "", "write a Prometheus text-format metrics snapshot")
	profile := flag.Bool("profile", false, "print a per-kernel profile table at exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ugrapher-bench [flags] <experiment|all|list>\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)

	// Exit codes: 1 = experiment error, 2 = usage (bad flags or experiment
	// id), 3 = -timeout exceeded.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := bench.Options{Quick: *quick, SampleBlocks: *sample}
	if *datasets != "" {
		opts.Datasets = strings.Split(*datasets, ",")
	}

	if cmd == "list" {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	obs := telemetry.CLIOptions{TracePath: *tracePath, MetricsPath: *metricsPath, Profile: *profile}
	obs.Begin()

	var summaries []experimentSummary
	err := runCmd(ctx, cmd, opts, *csvOut, &summaries)

	// The JSON summaries and telemetry outputs are written even when a later
	// experiment failed, so completed results are never lost.
	if *jsonOut != "" {
		if jerr := writeSummaries(*jsonOut, summaries); jerr != nil {
			fmt.Fprintf(os.Stderr, "ugrapher-bench: json: %v\n", jerr)
			if err == nil {
				err = jerr
			}
		}
	}
	if ferr := obs.Finish(os.Stdout); ferr != nil {
		fmt.Fprintf(os.Stderr, "ugrapher-bench: telemetry: %v\n", ferr)
		if err == nil {
			err = ferr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ugrapher-bench: %v\n", err)
		if errors.Is(err, context.DeadlineExceeded) {
			os.Exit(3)
		}
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks errors that should exit with the usage code (2).
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// runCmd dispatches "all" or a single experiment id, appending one summary
// record per completed experiment.
func runCmd(ctx context.Context, cmd string, opts bench.Options, csvOut bool, summaries *[]experimentSummary) error {
	if cmd == "all" {
		for _, e := range bench.All() {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("%w before %s", err, e.ID)
			}
			if err := runOne(e, opts, csvOut, summaries); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		return nil
	}
	e, err := bench.ByID(cmd)
	if err != nil {
		return usageError{err}
	}
	if err := runOne(e, opts, csvOut, summaries); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	return nil
}

// experimentSummary is the machine-readable record -json emits per
// experiment.
type experimentSummary struct {
	Experiment string   `json:"experiment"`
	Title      string   `json:"title"`
	Datasets   []string `json:"datasets,omitempty"`
	Quick      bool     `json:"quick"`
	// WallMs is how long the table took to produce: tool feedback, not a
	// measurement of the system (host wall clock is benchmark/'s job).
	WallMs float64 `json:"wall_ms"`
	Rows   int     `json:"rows"`
	// Verified reports whether the static analysis ran over the experiment's
	// compiled artifacts and found no violations. False means no plan or
	// program was compiled during the run (nothing was verified) — a clean
	// run can never carry violations, since verification failures abort
	// compilation.
	Verified bool `json:"verified"`
}

func writeSummaries(path string, summaries []experimentSummary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(summaries); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runOne(e bench.Experiment, opts bench.Options, csvOut bool, summaries *[]experimentSummary) error {
	start := time.Now()
	vsBefore := analysis.Stats()
	callsBefore, hitsBefore := schedule.MemoStats()
	tab, err := e.Run(opts)
	if err != nil {
		return err
	}
	vsAfter := analysis.Stats()
	calls, hits := schedule.MemoStats()
	wall := time.Since(start)
	render := tab.Render
	if csvOut {
		render = tab.RenderCSV
	}
	if err := render(os.Stdout); err != nil {
		return err
	}
	// Table cells are simulated GPU cycles; the time below is only how long
	// the table took to produce, and the counts how many candidate
	// evaluations it asked for and how many the simulation memo answered.
	fmt.Printf("(%s: simulated cycles in table; produced in %v; %d evaluations, %d from the memo)\n\n",
		e.ID, wall.Round(time.Millisecond), calls-callsBefore, hits-hitsBefore)
	*summaries = append(*summaries, experimentSummary{
		Experiment: e.ID,
		Title:      e.Title,
		Datasets:   opts.Datasets,
		Quick:      opts.Quick,
		WallMs:     float64(wall.Microseconds()) / 1e3,
		Rows:       len(tab.Rows),
		Verified: (vsAfter.Plans > vsBefore.Plans || vsAfter.Programs > vsBefore.Programs) &&
			vsAfter.Violations == vsBefore.Violations,
	})
	return nil
}
