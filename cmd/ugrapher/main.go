// Command ugrapher runs a single graph operator through the uGrapher
// interface: pick a dataset (or load an edge list), an operator, a feature
// width and optionally a schedule, and it reports the simulated metrics —
// and, with -tune, the grid-search winner and the ranking of the space.
//
// Examples:
//
//	ugrapher -dataset CO -op u_mul_e.sum -feat 32
//	ugrapher -dataset AR -op copy_u.max -feat 64 -schedule WE_G8_T1
//	ugrapher -dataset SB -op u_add_v -feat 8 -tune -top 10
//	ugrapher -graph edges.txt -op copy_u.sum -feat 16 -gpu A100 -source
//
// With -model it runs a whole GNN instead of one operator: the model's
// forward pass is recorded as a program, fused, scheduled and buffer-planned
// once (compile time reported separately from the steady-state run time).
// -no-compile forces the op-by-op interpreter path instead:
//
//	ugrapher -dataset CO -model GCN -feat 32 -classes 16
//	ugrapher -dataset CO -model GAT -feat 32 -no-compile
//
// -verify prints the static-analysis report for whatever was compiled (the
// whole program with -model, the single kernel plan otherwise) and exits
// nonzero on violations:
//
//	ugrapher -dataset CO -model GCN -feat 32 -verify
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/program"
	"repro/internal/schedule"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/vec"
)

func main() {
	dataset := flag.String("dataset", "", "dataset code from Table 3 (CO, CI, PU, ...)")
	graphFile := flag.String("graph", "", "edge-list file (header 'V E', then 'src dst' lines)")
	opName := flag.String("op", "u_mul_e.sum", "operator: a DGL-style name from the registry (copy_u, u_add_v, u_mul_e.sum, copy_e.max, ...)")
	feat := flag.Int("feat", 32, "feature width of the operator")
	gpuName := flag.String("gpu", "V100", "device the operator mode simulates: V100 or A100 (unused with -model)")
	schedText := flag.String("schedule", "", "schedule like WE_G8_T4 (empty = tune automatically)")
	tune := flag.Bool("tune", false, "grid-search the schedule space and report the ranking")
	top := flag.Int("top", 5, "with -tune: how many candidates to print")
	source := flag.Bool("source", false, "print the generated kernel source")
	backendName := flag.String("backend", "parallel", "host compute backend: "+strings.Join(core.BackendNames, ", ")+"; workers = GOMAXPROCS")
	model := flag.String("model", "", "run a whole model instead of one operator: GCN, GIN, GAT, SSum, SMax or SMean")
	classes := flag.Int("classes", 16, "with -model: number of output classes")
	runs := flag.Int("runs", 5, "with -model: steady-state repetitions to time")
	noCompile := flag.Bool("no-compile", false, "with -model: skip program compilation and interpret op by op")
	verify := flag.Bool("verify", false, "print the static-analysis verification report (whole program with -model, compiled plan otherwise); violations exit nonzero")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); exceeding it exits with code 3")
	checkNumerics := flag.Bool("check-numerics", false, "scan every graph operator's output for NaN/Inf and fail naming the op")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto)")
	metricsPath := flag.String("metrics", "", "write a Prometheus text-format metrics snapshot")
	profile := flag.Bool("profile", false, "print a per-kernel profile table at exit; with -model, also how each compiled step ran (split over N pool workers, or inline)")
	parallelSteps := flag.Bool("parallel-steps", false, "with -model: execute provably independent compiled steps concurrently (verified wave schedule)")
	flag.Parse()

	// Exit codes: 1 = execution error, 2 = usage (bad flags), 3 = -timeout
	// exceeded.
	backend, err := core.Backend(*backendName)
	var sched *core.Schedule // nil: tune automatically
	switch {
	case err != nil:
	case *feat < 1:
		err = fmt.Errorf("-feat must be at least 1, got %d", *feat)
	case *model != "" && *classes < 1:
		err = fmt.Errorf("-classes must be at least 1, got %d", *classes)
	case *runs < 1:
		err = fmt.Errorf("-runs must be at least 1, got %d", *runs)
	case *top < 1:
		err = fmt.Errorf("-top must be at least 1, got %d", *top)
	case *schedText != "":
		s, perr := core.ParseSchedule(*schedText)
		if perr != nil {
			err = fmt.Errorf("-schedule: %v", perr)
		}
		sched = &s
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ugrapher: %v\n", err)
		os.Exit(2)
	}
	core.SetCheckNumerics(*checkNumerics)
	program.SetParallelSteps(*parallelSteps)
	obs := telemetry.CLIOptions{TracePath: *tracePath, MetricsPath: *metricsPath, Profile: *profile}
	obs.Begin()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *model != "" {
		err = runModel(ctx, backend, *dataset, *graphFile, *model, *feat, *classes, *runs, *noCompile, *verify, *profile)
	} else {
		err = run(ctx, backend, *dataset, *graphFile, *opName, *feat, *gpuName, sched, *tune, *top, *source, *verify)
	}
	// Telemetry outputs are written even when the run failed, so a trace of
	// the failure (failed spans, fallback events) is never lost.
	if ferr := obs.Finish(os.Stdout); ferr != nil {
		fmt.Fprintf(os.Stderr, "ugrapher: telemetry: %v\n", ferr)
		if err == nil {
			err = ferr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ugrapher: %v\n", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps a run error to the process exit code: 3 when the -timeout
// budget ran out, 1 for any other execution error.
func exitCode(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return 3
	}
	return 1
}

// runModel times a whole model, either compiled (record -> fuse -> schedule
// -> buffer-plan once, then repeated zero-allocation runs) or interpreted
// (the op-by-op path, rebuilt every run), printing the one-off compile cost
// and the steady-state per-run wall clock on separate lines. Every kernel
// lowers onto backend.
func runModel(ctx context.Context, backend core.ExecBackend, dataset, graphFile, name string, feat, classes, runs int, noCompile, verify, profile bool) error {
	g, err := loadGraph(dataset, graphFile)
	if err != nil {
		return err
	}
	m, err := models.ByName(name)
	if err != nil {
		return err
	}
	// Host wall clock is what this mode reports, so schedules are the fixed
	// host ones: a simulator search would only lengthen the compile line.
	eng := models.NewHostEngine(backend)
	st := g.ComputeStats()
	fmt.Printf("graph: |V|=%d |E|=%d mean-degree=%.1f std=%.1f\n",
		st.NumVertices, st.NumEdges, st.MeanInDegree, st.StdInDegree)

	x := tensor.NewDense(g.NumVertices(), feat)
	x.FillRandom(rand.New(rand.NewSource(42)), 1)

	if noCompile {
		if verify {
			return fmt.Errorf("-verify needs a compiled program; drop -no-compile")
		}
		// Interpreter path: every run re-resolves schedules and re-lowers
		// kernels through the stage executor.
		if _, err := models.ForwardCtx(ctx, m, g, x, classes, eng); err != nil { // warm-up
			return err
		}
		start := time.Now()
		for i := 0; i < runs; i++ {
			if _, err := models.ForwardCtx(ctx, m, g, x, classes, eng); err != nil {
				return err
			}
		}
		per := time.Since(start) / time.Duration(runs)
		fmt.Printf("model: %s feat=%d classes=%d path=interpreter backend=%s\n",
			m.Name(), feat, classes, backend.Name())
		fmt.Printf("steady-state: %v/run over %d runs (interpreter rebuilds kernels every run)\n",
			per.Round(time.Microsecond), runs)
		return nil
	}

	compileStart := time.Now()
	cp, err := models.CompileModel(m, g, feat, classes, eng)
	if err != nil {
		return err
	}
	compileTime := time.Since(compileStart)
	if verify {
		rep := cp.Verify()
		printReport(rep)
		// What the dense-rewrite stage did and declined to do, each line
		// naming the rule that guards it or the reason it was left alone.
		for _, n := range cp.Rewrites() {
			fmt.Printf("  rewrite %s\n", n)
		}
		// Whether RunRows can answer a request from the closure of its rows,
		// and if not, which step stands in the way.
		if ok, declined := cp.RowsCapable(); ok {
			fmt.Println("  row-subset runs: every step has a row form (RunRows runs a request's in-closure)")
		} else {
			fmt.Printf("  row-subset runs: declined, RunRows takes the full pass: %s\n", declined)
		}
		if !rep.OK() {
			return fmt.Errorf("verification failed: %d violations", len(rep.Diags))
		}
	}
	if _, err := cp.RunCtx(ctx, x); err != nil { // warm-up
		return err
	}
	start := time.Now()
	for i := 0; i < runs; i++ {
		if _, err := cp.RunCtx(ctx, x); err != nil {
			return err
		}
	}
	per := time.Since(start) / time.Duration(runs)
	s := cp.Stats()
	fmt.Printf("model: %s feat=%d classes=%d path=compiled backend=%s\n",
		m.Name(), feat, classes, backend.Name())
	mib := func(floats int) float64 { return float64(floats) * 4 / (1 << 20) }
	fmt.Printf("program: %d graph kernels (%d fused pairs, %d nodes eliminated), %d reusable buffer slots, arena=%.1f MiB packed=%.1f MiB staging=%.1f MiB slabs=%.1f MiB\n",
		s.GraphKernels, s.FusedPairs, s.RemovedNodes, s.BufferSlots, mib(s.ArenaFloats), mib(s.PackedFloats), mib(s.StagingFloats), mib(s.SlabFloats))
	fmt.Printf("fusion: %d regions grown, %d kernel launches, %.1f KiB traffic saved, %d blocked GEMMs\n",
		s.FusedRegions, s.Steps, float64(s.RegionSavedBytes)/(1<<10), s.GemmBlocked)
	fmt.Printf("dense rewrites: %d GEMM epilogues, %d split-weight GEMMs, %d commuted aggregates\n",
		s.DenseEpilogues, s.SplitGemms, s.CommutedAggregates)
	mode := "sequential"
	if program.ParallelSteps() && s.MaxWaveWidth > 1 {
		mode = "parallel"
	}
	fmt.Printf("waves: %d waves over %d steps, max width %d, execution %s\n",
		s.Waves, s.Steps, s.MaxWaveWidth, mode)
	// The passes' split of the program compile; what is left of compileTime is
	// recording the model (models.Record) and the compiler's glue.
	ct := cp.CompileTimes()
	fmt.Printf("compile: %v, paid once (%v; record and the rest %v)\n", compileTime.Round(time.Microsecond), ct,
		(compileTime - ct.Total()).Round(time.Microsecond))
	fmt.Printf("steady-state: %v/run over %d runs (zero allocations per run)\n", per.Round(time.Microsecond), runs)
	if profile {
		// Which inner loops produced the numbers above: the AVX2 kernels of
		// internal/vec or the Go loops.
		fmt.Printf("kernels: %s\n", vec.ISA())
		// Whether parallelism engaged, step by step: a split step's chunks
		// are dealt to the caller plus workers-1 pool helpers. The times are
		// each step's median over the runs above (-profile arms telemetry),
		// dense steps included, and its share of their sum.
		modes := cp.StepModes()
		var total time.Duration
		for _, sm := range modes {
			total += sm.P50
		}
		fmt.Println("steps:                                          p50 ms  share")
		for i, sm := range modes {
			mode := "inline"
			if sm.Workers > 1 {
				mode = fmt.Sprintf("split over %d workers", sm.Workers)
			}
			// A graph step also says which loop the host ran — not the GPU
			// strategy its schedule names — and where a fused epilogue went.
			if sm.Walk != "" {
				mode += ", " + sm.Walk
			}
			if sm.Epilogue != "" {
				mode += ", epilogue " + sm.Epilogue
			}
			if sm.InteriorStages > 0 {
				mode += fmt.Sprintf(", row-resident, %d interior stages", sm.InteriorStages)
			}
			fmt.Printf("  %2d %-10s %-28s %8.3f  %4.0f%%  %s\n", i, sm.Op, sm.Name,
				float64(sm.P50)/1e6, 100*float64(sm.P50)/float64(max(total, 1)), mode)
		}
	}
	return nil
}

// loadGraph resolves the -dataset / -graph flags to a graph.
func loadGraph(dataset, graphFile string) (*graph.Graph, error) {
	switch {
	case dataset != "":
		g, _, err := datasets.Load(dataset)
		return g, err
	case graphFile != "":
		f, err := os.Open(graphFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	default:
		return nil, fmt.Errorf("need -dataset or -graph")
	}
}

func run(ctx context.Context, backend core.ExecBackend, dataset, graphFile, opName string, feat int, gpuName string, sched *core.Schedule, tune bool, top int, source, verify bool) error {
	g, err := loadGraph(dataset, graphFile)
	if err != nil {
		return err
	}

	entry, ok := ops.Lookup(opName)
	if !ok {
		return fmt.Errorf("unknown operator %q (see ops registry; e.g. u_mul_e.sum)", opName)
	}
	dev := gpu.V100()
	if gpuName == "A100" {
		dev = gpu.A100()
	}
	st := g.ComputeStats()
	fmt.Printf("graph: |V|=%d |E|=%d mean-degree=%.1f std=%.1f\n",
		st.NumVertices, st.NumEdges, st.MeanInDegree, st.StdInDegree)
	fmt.Printf("operator: %s (%s)\n", entry.DGLName, entry.Info)

	task := schedule.Task{Graph: g, Op: entry.Info, Feat: feat, Device: dev}.Widths(false)

	report := func(label string, c schedule.Candidate) {
		m := c.Metrics
		fmt.Printf("%s %-12s cycles=%.0f occupancy=%.2f sm_eff=%.2f l1=%.2f l2=%.2f blocks=%d atomics=%.0f bound=%s\n",
			label, c.Schedule, m.Cycles, m.Occupancy, m.SMEfficiency,
			m.L1HitRate, m.L2HitRate, m.NumBlocks, m.AtomicTransactions, m.BoundBy)
	}

	if sched != nil {
		c, err := schedule.Evaluate(task, *sched)
		if err != nil {
			return err
		}
		report("run:", c)
		if verify {
			if err := verifyPlanReport(entry.Info, *sched); err != nil {
				return err
			}
		}
		if err := timeFunctional(ctx, backend, g, entry.Info, feat, *sched); err != nil {
			return err
		}
		if source {
			printSource(entry.Info, *sched)
		}
		if !tune {
			return nil
		}
	}

	cands := schedule.GridSearch(task, schedule.PrunedSpace(task))
	if len(cands) == 0 {
		return fmt.Errorf("no valid schedules for this operator")
	}
	fmt.Printf("\ntuned over %d schedules on %s:\n", len(cands), dev.Name)
	n := top
	if n > len(cands) {
		n = len(cands)
	}
	for i := 0; i < n; i++ {
		report(fmt.Sprintf("#%-2d", i+1), cands[i])
	}
	worst := cands[len(cands)-1]
	fmt.Printf("worst %-11s cycles=%.0f (%.1fx the best)\n",
		worst.Schedule, worst.Metrics.Cycles, worst.Metrics.Cycles/cands[0].Metrics.Cycles)
	if verify {
		if err := verifyPlanReport(entry.Info, cands[0].Schedule); err != nil {
			return err
		}
	}
	if err := timeFunctional(ctx, backend, g, entry.Info, feat, cands[0].Schedule); err != nil {
		return err
	}
	if source {
		printSource(entry.Info, cands[0].Schedule)
	}
	return nil
}

// timeFunctional executes the operator for real on the selected host
// backend and reports measured wall-clock — explicitly distinct from the
// simulated cycles above, which are the GPU performance model.
func timeFunctional(ctx context.Context, backend core.ExecBackend, g *graph.Graph, op ops.OpInfo, feat int, sched core.Schedule) error {
	plan, err := core.Compile(op, sched)
	if err != nil {
		return err
	}
	o := randomOperands(g, op, feat)
	kern, err := backend.Lower(plan, g, o)
	if err != nil {
		return err
	}
	if err := kern.RunCtx(ctx); err != nil { // warm-up: page in operands, prime pools
		return err
	}
	const reps = 5
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := kern.RunCtx(ctx); err != nil {
			return err
		}
	}
	per := time.Since(start) / reps
	c := kern.Counters()
	fmt.Printf("functional: backend=%s workers=%d wall-clock=%v/run (host measurement; cycles above are simulated)\n",
		backend.Name(), c.Workers, per.Round(time.Microsecond))
	return nil
}

// printReport renders a program verification report: one line per rule
// checked, then the violations (if any) with their fix hints.
func printReport(rep analysis.Report) {
	fmt.Printf("verification: %s: %d rules checked, %d violations\n",
		rep.Subject, len(rep.RulesChecked), len(rep.Diags))
	for _, r := range rep.RulesChecked {
		fmt.Printf("  rule %s\n", r)
	}
	for _, d := range rep.Diags {
		fmt.Printf("  VIOLATION %s\n", d)
	}
}

// verifyPlanReport re-runs the plan-level verification for a single
// (operator, schedule) pair and prints the outcome. core.Compile already ran
// the same rules mandatorily; this surfaces them as an explicit report.
func verifyPlanReport(op ops.OpInfo, sched core.Schedule) error {
	plan, err := core.Compile(op, sched)
	if err != nil {
		var ve *analysis.VerifyError
		if errors.As(err, &ve) {
			for _, d := range ve.Diags {
				fmt.Printf("  VIOLATION %s\n", d)
			}
		}
		return err
	}
	err = analysis.VerifyPlan(analysis.PlanFacts{
		Op:             plan.Op,
		Schedule:       sched.Strategy.Code(),
		VertexParallel: sched.Strategy.VertexParallel(),
		NeedsAtomic:    plan.NeedsAtomic,
	})
	if err != nil {
		return err
	}
	fmt.Printf("verification: plan %s %s: rules %v ok (needs_atomic=%v)\n",
		op.Name, sched, analysis.PlanRules, plan.NeedsAtomic)
	return nil
}

// randomOperands fills deterministic random operands for op at width feat.
func randomOperands(g *graph.Graph, op ops.OpInfo, feat int) core.Operands {
	rng := rand.New(rand.NewSource(42))
	alloc := func(kind tensor.Kind) tensor.Typed {
		if kind == tensor.Null {
			return tensor.NullTensor
		}
		rows := g.NumVertices()
		if kind == tensor.EdgeK {
			rows = g.NumEdges()
		}
		d := tensor.NewDense(rows, feat)
		d.FillRandom(rng, 1)
		return tensor.Typed{Kind: kind, T: d}
	}
	o := core.Operands{A: alloc(op.AKind), B: alloc(op.BKind)}
	outRows := g.NumVertices()
	if op.CKind == tensor.EdgeK {
		outRows = g.NumEdges()
	}
	o.C = tensor.Typed{Kind: op.CKind, T: tensor.NewDense(outRows, feat)}
	return o
}

func printSource(op ops.OpInfo, sched core.Schedule) {
	plan, err := core.Compile(op, sched)
	if err != nil {
		return
	}
	fmt.Printf("\ngenerated kernel:\n%s\n", plan.GenerateSource())
}
