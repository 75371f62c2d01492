// Command benchmark is the repository's one benchmark: five named workloads,
// end-to-end metrics measured with tracing off, and a separate traced run
// that times every layer from outside, through its exported functions. See
// README.md in this directory.
//
//	go run -C benchmark .                       # all workloads, tracing off
//	go run -C benchmark . -trace 1              # the traced run, per-layer metrics
//	go run -C benchmark . -workload gcn-skew    # one workload
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/program"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	// smoke swaps every in-process workload's dataset for CO and shrinks
	// the machine-ceiling arrays; the tests use it.
	smoke bool
}

// processesPerRun is how many fresh processes an untraced run uses: each
// sets up and measures a third of the phase, and the run reports the median
// process (endToEndMetrics), so setup_s is a median of three set-ups.
const processesPerRun = 3

func (o options) phase() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run of one workload.
type Result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Error is the first failure seen, when Failed > 0.
	Error string `json:"error,omitempty"`
	// Samples is the sample count behind each percentile family.
	Samples map[string]int    `json:"samples"`
	Metrics map[string]Metric `json:"metrics"`
	Steps   []stepRow         `json:"steps,omitempty"`
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.Name] = d.Unit
	}
	return m
}()

func newResult(w workload, o options) Result {
	return Result{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Samples: map[string]int{}, Metrics: map[string]Metric{}}
}

func (r *Result) set(name string, v float64) { r.Metrics[name] = Metric{Value: v, Unit: units[name]} }

func (r *Result) setAll(m map[string]float64) {
	for k, v := range m {
		r.set(k, v)
	}
}

// add folds one process's operation counts into the run.
func (r *Result) add(attempted, failed int, firstErr string, samples map[string]int) {
	r.Attempted, r.Failed = r.Attempted+attempted, r.Failed+failed
	if r.Error == "" {
		r.Error = firstErr
	}
	for k, n := range samples {
		r.Samples[k] += n
	}
}

// failShare is operations failed, refused, timed out or wrong over
// operations attempted.
func (r *Result) failShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// complete leaves exactly the vocabulary of the run's kind: end-to-end
// metrics untraced, per-layer metrics traced, with 0 for a metric that does
// not apply to the workload.
func (r *Result) complete() {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	had := r.Metrics
	r.Metrics = make(map[string]Metric, len(defs))
	for _, d := range defs {
		r.set(d.Name, had[d.Name].Value)
	}
}

// repoRoot walks up from the working directory to the directory holding
// BENCHMARK.json (go run -C benchmark starts one level below it).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// phase is what one fresh process (an in-process child, or one daemon under
// the load generator) contributes to an untraced run.
type phase struct {
	// SetupS is exec to first timed operation possible; RSSMiB the
	// process's VmHWM at the end of its measured stretch.
	SetupS float64 `json:"setup_s"`
	RSSMiB float64 `json:"rss_mib"`
	// LatMS is the caller's latency and FwdMS the forward-pass time of
	// every correct operation.
	LatMS []float64 `json:"lat_ms"`
	FwdMS []float64 `json:"fwd_ms"`
	// Good counts operations correct and within the latency limit, Passes
	// the forward passes completed, Seconds the measured time.
	Good    int     `json:"good"`
	Passes  float64 `json:"passes"`
	Seconds float64 `json:"seconds"`
}

// endToEndMetrics turns a run's processes into its end-to-end metrics. Every
// metric is computed per process and the run reports the median process, so
// a process that shared the host with a noisy neighbour cannot own the run.
// rss_mb_peak alone is the mean: a process's peak falls into one of two
// clusters (the collector has or has not run when the arena is first
// touched), and a median of three flips between them.
func endToEndMetrics(phases []phase) map[string]float64 {
	per := map[string][]float64{}
	for _, p := range phases {
		lat := sortedCopy(p.LatMS)
		seconds := p.Seconds
		if seconds == 0 {
			seconds = 1 // nothing completed: the rates read 0
		}
		for k, v := range map[string]float64{
			"setup_s":     p.SetupS,
			"fwd_ms_p50":  median(p.FwdMS),
			"fwd_per_s":   p.Passes / seconds,
			"lat_ms_p50":  percentile(lat, 50),
			"lat_ms_p90":  percentile(lat, 90),
			"goodput_rps": float64(p.Good) / seconds,
			"rss_mb_peak": p.RSSMiB,
		} {
			per[k] = append(per[k], v)
		}
	}
	m := make(map[string]float64, len(per))
	for k, vs := range per {
		m[k] = median(vs)
	}
	m["rss_mb_peak"] = mean(per["rss_mb_peak"])
	return m
}

// runInproc is the parent side of an in-process workload: it starts the
// run's processes one after another as children of this binary, each of
// which sets up, says READY and measures its share of the phase. The traced
// run is one child.
func runInproc(w workload, o options) (Result, error) {
	res := newResult(w, o)
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	children := processesPerRun
	if o.trace {
		children = 1
	}
	var phases []phase
	for i := 0; i < children; i++ {
		args := []string{"-child", "-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds / float64(children)),
			"-out", o.outDir, fmt.Sprintf("-smoke=%v", o.smoke)}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return res, err
		}
		started := time.Now()
		if err := cmd.Start(); err != nil {
			return res, err
		}
		var rep *childReport
		var repErr error
		setup := 0.0
		sc := bufio.NewScanner(stdout)
		sc.Buffer(nil, 16<<20)
		// The pipe is read to its end and the child waited for on every
		// path, so no child outlives the run.
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "READY":
				setup = time.Since(started).Seconds()
			case strings.HasPrefix(line, "RESULT "):
				rep = new(childReport)
				repErr = json.Unmarshal([]byte(line[len("RESULT "):]), rep)
			default:
				fmt.Println(line)
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // a line too long for the scanner must not leave the child blocked on its pipe
		if err := cmd.Wait(); err != nil {
			return res, fmt.Errorf("child %d of %s: %w", i+1, w.Name, err)
		}
		if repErr != nil {
			return res, fmt.Errorf("child %d of %s: result line: %w", i+1, w.Name, repErr)
		}
		if rep == nil || setup == 0 || rep.Attempted == 0 {
			return res, fmt.Errorf("child %d of %s ended without a result", i+1, w.Name)
		}
		res.add(rep.Attempted, rep.Failed, rep.Error, rep.Samples)
		res.Steps = rep.Steps
		for k, v := range rep.Metrics {
			res.set(k, v)
		}
		if rep.Phase != nil {
			rep.Phase.SetupS = setup
			phases = append(phases, *rep.Phase)
		}
	}
	if !o.trace {
		res.setAll(endToEndMetrics(phases))
	}
	res.Samples["processes"] = children
	return res, nil
}

// childMain is an in-process child: set up, say READY, run the phase and
// print the RESULT line.
func childMain(w workload, o options) error {
	if o.smoke {
		w.Dataset = "CO"
	}
	var rep childReport
	if o.trace {
		tr := newTracer(w.Name)
		prof, err := profileModel(w, o, tr)
		if err != nil {
			return err
		}
		fmt.Println("READY")
		rep = childReport{Attempted: len(prof.runMS) + prof.failed, Failed: prof.failed, Metrics: prof.metrics, Steps: prof.steps,
			Samples: map[string]int{"program.run_ms": len(prof.runMS)}}
		rep.Metrics["loadgen.sent"] = float64(rep.Attempted)
		if err := prof.s.checkOracle(w.Classes); err != nil {
			rep.Failed, rep.Error = rep.Attempted, err.Error()
		}
		if err := tr.write(filepath.Join(o.outDir, w.Name+".spans.json")); err != nil {
			return err
		}
	} else {
		s, err := setupInproc(w, o.seed)
		if err != nil {
			return err
		}
		fmt.Println("READY")
		rep = measureInproc(s, w, o)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println("RESULT " + string(b))
	return nil
}

// runWorkload runs one workload once and prints its metrics.
func runWorkload(w workload, o options, root string) (Result, error) {
	fmt.Printf("== %s (seed %d, %gs, trace %v): %s\n", w.Name, o.seed, o.seconds, o.trace, w.Why)
	var res Result
	var err error
	if w.Serve {
		res, err = runServe(w, o, root)
	} else {
		res, err = runInproc(w, o)
	}
	if err != nil {
		return res, err
	}
	res.complete()
	printResult(res)
	return res, nil
}

func printResult(r Result) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-28s %14.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("  %-28s %14.4f ratio   (attempted %d, ok %d, failed %d)\n", "fail_share", r.failShare(), r.Attempted, r.Attempted-r.Failed, r.Failed)
	var fams []string
	for k := range r.Samples {
		fams = append(fams, k)
	}
	sort.Strings(fams)
	// Percentiles are taken per process, so the count that says which
	// percentile a run supports is one process's share.
	procs := r.Samples["processes"]
	if procs == 0 {
		procs = 1
	}
	for _, k := range fams {
		if n := r.Samples[k]; n > 0 && k != "processes" {
			fmt.Printf("  samples %-20s %6d over %d processes   (highest percentile with 10 samples beyond it in one process: p%g)\n", k, n, procs, topPercentile(n/procs))
		}
	}
	if procs > 1 {
		fmt.Printf("  %d fresh processes, each set up and measured for its share of the phase: every metric is the median process's, rss_mb_peak their mean\n", procs)
	}
	if len(r.Steps) > 0 {
		fmt.Println("  step replay (bytes and flops computed from shapes):")
		for _, s := range r.Steps {
			fmt.Printf("    %2d %-12s %-11s %-28s p50 %9.3f ms  %7.2f GB/s  %5.2f of ceiling  (%d reps)\n",
				s.Step, s.Op, s.Class, s.Name, s.MsP50, s.GBps, s.CeilingShare, s.Reps)
		}
	}
	if r.Error != "" {
		fmt.Printf("  first failure: %s\n", r.Error)
	}
}

// contractLine is the driver's result object, the last line of stdout.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// provenance records what a set of runs was measured on.
type provenance struct {
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	Workers       int     `json:"workers"`
	Shards        int     `json:"shards"`
	ParallelSteps bool    `json:"parallel_steps"`
	Engine        string  `json:"engine"`
	Backend       string  `json:"backend"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Processes     int     `json:"processes"`
	Traced        bool    `json:"traced"`
	When          string  `json:"when"`
	Note          string  `json:"note"`
}

// runFile is what -out receives: provenance plus every run of every
// workload, the input of -compare.
type runFile struct {
	Provenance provenance          `json:"provenance"`
	Runs       map[string][]Result `json:"runs"`
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func newProvenance(root string, o options) provenance {
	b := newBackend()
	return provenance{
		Commit: gitCommit(root), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Workers: core.Workers(b), Shards: defaultShards, ParallelSteps: program.ParallelSteps(),
		Engine: "tuned", Backend: b.Name(), Seed: o.seed, Seconds: o.seconds, Processes: processesPerRun, Traced: o.trace,
		When: time.Now().UTC().Format(time.RFC3339),
		Note: "serve workloads use NumCPU connections; at NumCPU=2 the daemon cannot form batches, so serve.batch_mean reads 1.0 until bench hosts have 4 or more cores",
	}
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	name := flag.String("workload", "", "run only this workload (default: all five) and end with the driver's one-line JSON result")
	seed := flag.Int64("seed", 1, "workload seed: features, vertex ids, arrival schedule, model mix")
	seconds := flag.Float64("seconds", 10, "length of each measured phase")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file per workload, no end-to-end metrics")
	out := flag.String("out", "", "directory for result and span files (default benchmark/out)")
	runs := flag.Int("runs", 1, "all-workload mode: runs per workload (their spread is what -compare judges)")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	smoke := flag.Bool("smoke", false, "in-process workloads run on CO (fast; for tests)")
	child := flag.Bool("child", false, "internal: run as an in-process workload child")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(2, "usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	// The benchmark measures the default configuration; an inherited
	// override would silently measure something else.
	for _, env := range []string{"UGRAPHER_BACKEND", "UGRAPHER_WORKERS", "UGRAPHER_SHARDS"} {
		if v, set := os.LookupEnv(env); set {
			fail(2, "%s=%q is set; unset it (the benchmark measures the default configuration)", env, v)
		}
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *runs < 1 {
		fail(2, "invalid flags: -trace is 0 or 1; -seconds and -runs are positive")
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out, smoke: *smoke}

	if *child {
		w, ok := workloadByName(*name)
		if !ok || w.Serve {
			fail(2, "-child needs an in-process -workload")
		}
		if err := childMain(w, o); err != nil {
			fail(1, "%v", err)
		}
		return
	}

	root, err := repoRoot()
	if err != nil {
		fail(1, "%v", err)
	}
	if o.outDir == "" {
		o.outDir = filepath.Join(root, "benchmark", "out")
	}
	if o.outDir, err = filepath.Abs(o.outDir); err != nil {
		fail(1, "%v", err)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fail(1, "%v", err)
	}

	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fail(2, "unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	file := runFile{Provenance: newProvenance(root, o), Runs: map[string][]Result{}}
	correct := true
	var last Result
	for r := 0; r < *runs; r++ {
		for _, w := range selected {
			res, err := runWorkload(w, o, root)
			if err != nil {
				fail(1, "%s: %v", w.Name, err)
			}
			file.Runs[w.Name] = append(file.Runs[w.Name], res)
			correct = correct && res.Failed == 0
			last = res
		}
	}
	kind := "e2e"
	if o.trace {
		kind = "traced"
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("run-%s-seed%d-%d.json", kind, o.seed, time.Now().Unix()))
	b, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fail(1, "%v", err)
	}
	fmt.Printf("results written to %s\n", path)
	if *name != "" {
		line, err := json.Marshal(contractLine{Correct: correct, Attempted: last.Attempted, Failed: last.Failed, Metrics: last.Metrics})
		if err != nil {
			fail(1, "%v", err)
		}
		fmt.Println(string(line))
	}
	if !correct {
		fail(1, "an output check failed (fail_share > 0)")
	}
}
