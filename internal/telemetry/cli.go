package telemetry

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// CLI plumbing shared by the three commands: each wires -trace, -metrics
// and -profile into a CLIOptions, calls Begin before doing work (arming
// telemetry only when any output was requested, so unobserved runs keep the
// disarmed fast path), and Finish afterwards — on the error path too, so a
// failed run still leaves a trace with its failed spans.

// CLIOptions carries the observability flags of one command invocation.
type CLIOptions struct {
	// TracePath receives Chrome trace-event JSON ("" = off).
	TracePath string
	// MetricsPath receives a Prometheus text-format snapshot ("" = off).
	MetricsPath string
	// Profile prints an end-of-run per-kernel summary table.
	Profile bool
}

// Active reports whether any telemetry output was requested.
func (o CLIOptions) Active() bool {
	return o.TracePath != "" || o.MetricsPath != "" || o.Profile
}

// Begin arms telemetry if any output was requested.
func (o CLIOptions) Begin() {
	if o.Active() {
		SetEnabled(true)
	}
}

// Finish writes the requested outputs from the default registry: the trace
// file, the metrics snapshot, and the profile table (to profileW, normally
// stdout). Returns the first error; later outputs are still attempted.
func (o CLIOptions) Finish(profileW io.Writer) error {
	if !o.Active() {
		return nil
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if o.TracePath != "" {
		keep(writeFile(o.TracePath, defaultReg.WriteChromeTrace))
	}
	if o.MetricsPath != "" {
		keep(writeFile(o.MetricsPath, defaultReg.WritePrometheus))
	}
	if o.Profile {
		keep(defaultReg.WriteProfile(profileW))
	}
	return firstErr
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteProfile renders the end-of-run summary: one row per distinct
// (op, schedule, backend) kernel site, sorted by total wall time, plus a
// header with the run-wide counts the satellite metrics track.
func (r *Registry) WriteProfile(w io.Writer) error {
	stats := r.SiteStats()

	// Merge sites that share identity (a kernel recompiled per phase, or
	// one op lowered by several tests) into one row.
	type key struct{ op, sched, backend string }
	merged := map[key]*SiteStats{}
	order := []key{}
	var totalRuns, totalFails int64
	for _, s := range stats {
		if s.Runs == 0 && s.Failures == 0 {
			continue
		}
		k := key{s.Op, s.Schedule, s.Backend}
		m, ok := merged[k]
		if !ok {
			c := s
			merged[k] = &c
			order = append(order, k)
			continue
		}
		m.Runs += s.Runs
		m.Failures += s.Failures
		m.TotalNs += s.TotalNs
	}
	rows := make([]*SiteStats, 0, len(merged))
	for _, k := range order {
		m := merged[k]
		rows = append(rows, m)
		totalRuns += m.Runs
		totalFails += m.Failures
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].TotalNs > rows[j].TotalNs })

	if _, err := fmt.Fprintf(w, "profile: %d kernel sites, %d runs, %d failures, %d fallbacks\n",
		len(rows), totalRuns, totalFails, r.fallbacks.Value()); err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "%-28s %-12s %-10s %-11s %6s %5s %12s %12s\n",
		"op", "schedule", "backend", "walk", "runs", "fail", "total", "mean"); err != nil {
		return err
	}
	for _, s := range rows {
		total := time.Duration(s.TotalNs)
		mean := time.Duration(0)
		if s.Runs > 0 {
			mean = total / time.Duration(s.Runs)
		}
		walk := s.Walk
		if walk == "" {
			walk = "-"
		}
		if _, err := fmt.Fprintf(w, "%-28s %-12s %-10s %-11s %6d %5d %12v %12v\n",
			s.Op, s.Schedule, s.Backend, walk, s.Runs, s.Failures,
			total.Round(time.Microsecond), mean.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}
