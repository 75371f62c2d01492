package program

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/schedule"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/workpool"
)

// Compilation: bind a recorded Program to a concrete (graph, scheduler,
// backend) triple. Three passes run once, here, instead of on every forward
// call:
//
//  1. fusion and rewriting — if the scheduler fuses, materialise+scatter
//     pairs merge into fused-aggregation operators and grow into regions
//     (regions.go), then the dense side loses the intermediates it need not
//     write (rewrite.go);
//  2. schedule assignment — every graph operator's schedule is resolved
//     through the engine (tuner / predictor / fixed baseline) and lowered
//     once to a backend CompiledKernel bound to its arena operands;
//  3. buffer planning (buffers.go) — intermediates map onto arena slots.
//
// The resulting CompiledProgram.Run is a flat step loop over prebound
// tensors: no scheduling, no validation, no allocation.

// Scheduler decides graph-operator schedules at compile time. It is the
// schedule-assignment subset of models.Engine, declared structurally here so
// internal/models can pass its engines in without an import cycle.
type Scheduler interface {
	// Device is the simulated device schedules are chosen for.
	Device() *gpu.Device
	// ScheduleFor returns the schedule for one graph-operator task.
	ScheduleFor(t schedule.Task) core.Schedule
	// Fused reports whether message creation should fuse into aggregation.
	Fused() bool
}

// ScheduledOp records one graph operator's compile-time schedule decision.
type ScheduledOp struct {
	Name     string
	Op       ops.OpInfo
	Schedule core.Schedule
}

// Stats summarises what compilation did.
type Stats struct {
	// GraphKernels is the number of graph-operator kernels the compiled
	// program launches per Run (after fusion).
	GraphKernels int
	// FusedPairs is how many materialise+scatter pairs the fusion pass merged.
	FusedPairs int
	// FusedRegions is how many fusion regions absorbed at least one node
	// beyond the pair rewrite (regions.go).
	FusedRegions int
	// RegionSavedBytes is the cost model's claimed traffic saving across all
	// fusion regions.
	RegionSavedBytes int64
	// GemmBlocked is how many GEMM steps compile onto the packed
	// column-panel kernel (tensor.GemmPackedInto) instead of the naive loop.
	GemmBlocked int
	// Steps is the number of runtime steps the compiled program executes per
	// Run (kernel launches plus dense/elementwise stages).
	Steps int
	// RemovedNodes is how many nodes dead-code elimination dropped.
	RemovedNodes int
	// BufferSlots and PeakLive describe the buffer plan (equal by
	// construction for the linear-scan allocator).
	BufferSlots int
	PeakLive    int
	// ArenaFloats is the shared intermediate storage in float32 elements.
	ArenaFloats int
	// PackedFloats is the column-panel copies of the GEMM weights
	// (tensor.PackB), held beside the recorded constants they were packed from.
	PackedFloats int
	// StagingFloats is the compile-time staging buffers fusion regions read
	// absorbed operand chains through.
	StagingFloats int
	// Waves is the number of topological levels in the verified wave
	// schedule (waves.go); every step in one wave is provably independent
	// of its wave-mates.
	Waves int
	// MaxWaveWidth is the widest wave. 1 means the program is a pure chain:
	// wave execution would add nothing, and RunCtx keeps the sequential
	// loop even with -parallel-steps on.
	MaxWaveWidth int
	// DenseEpilogues, SplitGemms and CommutedAggregates count what the
	// dense-rewrite stage (rewrite.go) did: elementwise nodes absorbed into
	// the GEMM or add-scaled step before them, concat+GEMM pairs turned into
	// one split-weight GEMM, and aggregates moved behind their projection.
	DenseEpilogues     int
	SplitGemms         int
	CommutedAggregates int
	// RowRegions is how many graph kernels run as row-resident regions
	// (regions.go), InteriorStages the recorded steps that run inside their row
	// chunks instead of as steps, and SlabFloats the chunk-sized storage, all
	// pool participants together, their values live in.
	RowRegions     int
	InteriorStages int
	SlabFloats     int
}

// step is one executable operation of the compiled program, with all tensors
// resolved to arena views or constants at compile time.
type step struct {
	op      NodeOp
	name    string
	label   string // precomputed span label, so Run-time tracing allocates nothing
	x, y    *tensor.Dense
	out     *tensor.Dense
	chain   []Unary
	scale   float32
	inPlace bool
	kern    core.CompiledKernel
	// pb is the packed weight panel of a GEMM step; x2 and pb2 are the second
	// (operand, weight) pair of a split-weight one (rewrite.go).
	pb, pb2 *tensor.PackedB
	x2      *tensor.Dense
	// post is the elementwise chain a GEMM or add-scaled step applies to each
	// row range right after computing it (rewrite.go).
	post []Unary
	// reads and vout are the values the step reads from storage (its node's
	// operands) and the one it writes, kept so the wave analyzer (waves.go) can
	// resolve the step's arena effect intervals; vx2 is the one bound to x2.
	reads     []ValueID
	vx2, vout ValueID
	// body is a dense step's work on output rows [lo, hi) (dense.go); split is
	// its row-range plan when it is large enough to run on the worker pool,
	// nil when body runs over all rows on the caller.
	body  func(lo, hi int)
	split *denseSplit
	// site times the step, dense or graph, while telemetry is enabled.
	site *telemetry.StepSite
	// rowReads is what a row-subset run's backward walk knows about the step
	// (rows.go), rowKern a graph step's row-set entry point, and rowDeclined
	// why the step has no row form ("" when it has one).
	rowReads    []rowRead
	rowKern     core.RowRunner
	rowDeclined string
}

// chainRows is the row-range body of elementwise work — a unary step, a
// region's staged prologue or its epilogue: rows [lo, hi) of dst take src's
// rows (nil = dst is transformed in place), then the chain. Zero-allocation —
// it captures only pre-sized tensors.
func chainRows(dst, src *tensor.Dense, chain []Unary) func(lo, hi int) {
	return func(lo, hi int) {
		if src != nil {
			copy(dst.RowRange(lo, hi).Data, src.RowRange(lo, hi).Data)
		}
		applyChain(chain, dst, lo, hi)
	}
}

// regionStage makes a region stage of a row-wise body over [0, rows): on the
// worker pool in row ranges when the dense split rule says the stage is worth
// it (denseInlineNs), on the caller otherwise — a stage that cannot ride in a
// kernel's chunk bodies still never runs whole-tensor on one goroutine where a
// standalone elementwise step of the same shape would have been split.
func regionStage(rows int, costNs float64, workers int, body func(lo, hi int)) core.RegionStage {
	sp := newDenseSplit(rows, costNs, workers, body)
	if sp == nil {
		return func() { body(0, rows) }
	}
	return func() {
		// A RegionStage carries neither a context nor an error: the region
		// kernel checks its context around the stages, and a chunk panic is
		// re-raised here into the region kernel's recover, which types it.
		if err := workpool.Run(context.TODO(), sp.job, rows, sp.chunk, sp.workers); err != nil {
			//lint:allow panic-justification -- re-raises a recovered chunk panic; regionKernel.RunCtx turns it into a *KernelError
			panic(err)
		}
	}
}

// ErrConcurrentRun reports two goroutines calling Run/RunCtx on the same
// CompiledProgram at once. The program's intermediates live in one shared
// arena, so overlapping runs would silently corrupt each other's buffers;
// the guard turns that data race into a loud, immediate error. Callers that
// need concurrency compile one program per goroutine or serialize calls
// (e.g. through a single worker, as internal/serve does).
var ErrConcurrentRun = errors.New("program: concurrent Run on a CompiledProgram (not safe for concurrent use; compile one program per goroutine or serialize calls)")

// CompiledProgram is a model forward pass compiled for one graph, scheduler
// and backend. Run may be called repeatedly; it is not safe for concurrent
// use (all intermediates live in one shared arena) — overlapping calls fail
// fast with ErrConcurrentRun.
type CompiledProgram struct {
	pre    *Program // recorded program, kept for re-verification
	prog   *Program
	g      *graph.Graph
	plan   *BufferPlan
	arena  *tensor.Arena
	input  *tensor.Dense
	output *tensor.Dense
	steps  []step
	stats  Stats
	scheds []ScheduledOp
	// rewrites is every decision the dense-rewrite stage took (rewrite.go).
	rewrites []RewriteNote
	// times is where Compile's time went, pass by pass.
	times CompileTimes
	// slotOffsets is each arena slot's float offset, kept so the wave
	// analyzer can turn slot assignments into effect intervals.
	slotOffsets []int
	// depEdges and waves are the verified step-dependence DAG and wave
	// schedule (waves.go).
	depEdges []analysis.DepEdge
	waves    [][]int
	// running guards against concurrent Run calls (0 = idle, 1 = running).
	running atomic.Int32
	// Row-subset runs (rows.go). rowsDeclined names the first step without a
	// row form ("" = RunRows runs row sets); rowFullWork is the rows plus
	// in-edges the graph steps of a full pass process and workers the count
	// that pass is split over, which together price the row-or-full choice;
	// rowSets (by value, allocated on the first RunRows) and rowEpoch are the
	// reused needed-row scratch.
	rowsDeclined string
	rowFullWork  int64
	workers      int
	rowSets      []*rowSet
	rowEpoch     uint32
	// Wave-run state (waves.go): the pool job that runs one wave's steps,
	// the active run's context and current wave, and the mutex-guarded first
	// step error.
	waveJob *workpool.Job
	wctx    context.Context
	wave    []int
	wmu     sync.Mutex
	werr    error
}

// Compile lowers p onto graph g with schedules chosen by s and kernels
// executed by backend (nil = core.NewParallelBackend(0)).
func Compile(p *Program, g *graph.Graph, s Scheduler, backend core.ExecBackend) (cp *CompiledProgram, err error) {
	if backend == nil {
		backend = core.NewParallelBackend(0)
	}
	csp := telemetry.StartSpan("program", "compile", "compile")
	defer func() {
		if err != nil {
			csp.EndErr(err.Error())
		} else {
			csp.EndArgs(compileArgs(cp))
		}
	}()
	cm := DefaultCostModel()
	if rp, ok := s.(RegionPolicy); ok {
		cm = rp.FusionCostModel()
	}
	var notes []RewriteNote
	var stats Stats
	numV, numE := g.NumVertices(), g.NumEdges()
	clk := passClock{last: time.Now()}
	var times CompileTimes
	// A compile that fails releases the telemetry of every kernel it lowered:
	// they never run.
	var lowered []core.CompiledKernel
	defer func() {
		if err != nil {
			for _, k := range lowered {
				core.ReleaseTelemetry(k)
			}
		}
	}()

	// Pass 1: fusion and dense rewrites (engines that fuse) + dead-code
	// elimination, all under one cost model — the scheduler's, when it is a
	// RegionPolicy. A PairOnly model leaves the pair rewrite alone.
	work := p
	if s.Fused() {
		var rstats RegionStats
		work, rstats = FuseRegions(work, numV, numE, cm)
		stats.FusedPairs = rstats.Pairs
		stats.FusedRegions = rstats.Regions
		stats.RegionSavedBytes = rstats.SavedBytes
		clk.lap(&times.Fuse)
		work, notes = RewriteDense(work, numV, numE, cm)
		stats.countRewrites(notes)
		clk.lap(&times.Rewrite)
	}
	work, stats.RemovedNodes = EliminateDead(work)
	stats.GraphKernels = work.GraphOpCount()
	clk.lap(&times.Fuse)

	// Pass 3 runs before 2 in code: kernels lower against planned storage.
	plan, err := PlanBuffers(work, numV, numE)
	if err != nil {
		return nil, err
	}
	stats.BufferSlots = len(plan.SlotFloats)
	stats.PeakLive = plan.PeakLive
	stats.ArenaFloats = plan.TotalFloats
	clk.lap(&times.Buffers)

	// Mandatory static verification (internal/analysis): SSA form, Table-4
	// operand typing, fusion legality against the recorded program, and
	// buffer-plan alias safety. A violation aborts compilation — an illegal
	// plan is never lowered.
	if err := verifyCompilation(p, work, plan, numV, numE); err != nil {
		return nil, fmt.Errorf("program: %s: %w", work.Model, err)
	}
	clk.lap(&times.Verify)

	// Carve one arena view per planned value; constants keep their own
	// recorded storage.
	arena := tensor.NewArena(plan.TotalFloats)
	offsets := make([]int, len(plan.SlotFloats))
	off := 0
	for i, f := range plan.SlotFloats {
		offsets[i] = off
		off += f
	}
	views := make([]*tensor.Dense, len(work.Values))
	for i := range work.Nodes {
		n := &work.Nodes[i]
		if n.Op == OpConst {
			views[n.Out] = n.Const
			continue
		}
		v := work.Values[n.Out]
		views[n.Out] = arena.View(offsets[plan.Assign[n.Out]], work.RowsOf(n.Out, numV, numE), v.Cols)
	}
	clk.lap(&times.Buffers)

	cp = &CompiledProgram{
		pre: p, prog: work, g: g, plan: plan, arena: arena,
		input:       views[work.Input],
		output:      views[work.Output],
		steps:       make([]step, 0, len(work.Nodes)),
		stats:       stats,
		rewrites:    notes,
		slotOffsets: offsets,
	}

	// Pass 2: schedule assignment + one-time kernel lowering, interleaved
	// with step construction.
	for i := range work.Nodes {
		n := &work.Nodes[i]
		st := step{op: n.Op, name: n.Name, label: stepLabel(n.Op, n.Name), out: views[n.Out], scale: n.Scale, chain: n.Chain, inPlace: plan.InPlace[i],
			reads: n.operands(), vx2: NoValue, vout: n.Out}
		// An operand that is a row-resident region's interior value has no view:
		// the head's kernel computes it chunk by chunk.
		if n.X != NoValue {
			st.x = views[n.X]
		}
		if n.Y != NoValue {
			st.y = views[n.Y]
		}
		if d := n.Dense; d != nil {
			st.post = d.Post
		}
		switch n.Op {
		case OpInput, OpConst:
			continue // no runtime work; input copy happens in Run
		case OpGEMM:
			// GEMM weights are record-time constants (builder-enforced), so
			// the column-panel pack amortises over every Run; the packed
			// kernel is bit-identical to the naive loop (tensor/gemm.go).
			st.pb = tensor.PackB(views[n.Y])
			cp.stats.GemmBlocked++
			cp.stats.PackedFloats += st.pb.PackedFloats()
			if d := n.Dense; d != nil && d.X2 != NoValue {
				st.vx2, st.x2 = d.X2, views[d.X2]
				st.pb2 = tensor.PackB(views[d.W2])
				cp.stats.PackedFloats += st.pb2.PackedFloats()
			}
		case OpGraph:
			// The task carries the nameless op so schedule lookups hit the
			// same tuner cache entries the interpreter populates.
			task := schedule.Task{Graph: g, Op: n.GOp, Feat: work.Values[n.Out].Cols, Device: s.Device()}
			if n.GOp.AKind != tensor.Null {
				task.ACols = work.Values[n.X].Cols
			}
			if n.GOp.BKind != tensor.Null {
				task.BCols = work.Values[n.Y].Cols
			}
			clk.lap(&times.Lower)
			sched := s.ScheduleFor(task)
			clk.lap(&times.Schedule)
			op := n.GOp
			op.Name = n.Name
			plan2, err := core.Compile(op, sched)
			if err != nil {
				return nil, fmt.Errorf("program: %s: %w", n.Name, err)
			}
			// Region composition: absorbed operand chains read through a
			// compile-time staging buffer that a prologue stage fills each Run,
			// and the output epilogue goes into the kernel's own chunk bodies
			// where the backend can take it (core.EpilogueBinder), so the rows
			// are transformed by the goroutine that produced them while they
			// are in cache; elsewhere it is a stage after the kernel. Stages
			// run through the dense splitter — all inside one composed kernel,
			// on every backend.
			ax, ay := st.x, st.y
			var r RegionInfo // zero = nothing absorbed
			if n.Region != nil {
				r = *n.Region
			}
			if len(r.PreX) > 0 {
				ax = tensor.NewDense(ax.Rows, ax.Cols)
				cp.stats.StagingFloats += len(ax.Data)
			}
			if len(r.PreY) > 0 {
				ay = tensor.NewDense(ay.Rows, ay.Cols)
				cp.stats.StagingFloats += len(ay.Data)
			}
			operands := core.Operands{
				A: tensor.Typed{Kind: op.AKind, T: ax},
				B: tensor.Typed{Kind: op.BKind, T: ay},
				C: tensor.Typed{Kind: op.CKind, T: st.out},
			}
			// A row-resident region's head lowers with its interior: the operand
			// the stages compute has no view, and a backend without that form
			// says so here.
			if len(r.Interior) > 0 {
				operands.Interior = interiorOf(work, n, views)
			}
			kern, err := backend.Lower(plan2, g, operands)
			if err != nil {
				return nil, fmt.Errorf("program: %s: %w", n.Name, err)
			}
			if len(r.Interior) > 0 {
				c := kern.Counters()
				cp.stats.RowRegions++
				cp.stats.InteriorStages += c.InteriorStages
				cp.stats.SlabFloats += c.SlabFloats
				cp.rewrites = append(cp.rewrites, rowRegionNote(work, n, operands.Interior, numV, numE, c))
			}
			// The lowered kernel reports the worker count too, which keeps it
			// visible behind a backend decorator that hides Workers().
			workers := max(core.Workers(backend), kern.Counters().Workers)
			var pre, post []core.RegionStage
			if len(r.PreX) > 0 {
				pre = append(pre, regionStage(ax.Rows, chainCostNs(r.PreX, true, len(ax.Data)), workers, chainRows(ax, st.x, r.PreX)))
			}
			if len(r.PreY) > 0 {
				pre = append(pre, regionStage(ay.Rows, chainCostNs(r.PreY, true, len(ay.Data)), workers, chainRows(ay, st.y, r.PreY)))
			}
			if len(r.Post) > 0 {
				epilogue := chainRows(st.out, nil, r.Post)
				if eb, ok := kern.(core.EpilogueBinder); !ok || !eb.BindEpilogue(epilogue) {
					post = append(post, regionStage(st.out.Rows, chainCostNs(r.Post, false, len(st.out.Data)), workers, epilogue))
				}
			}
			if r.Absorbed > 0 {
				kern = core.ComposeRegion(kern, pre, post, r.Name, g)
			}
			st.kern = kern
			lowered = append(lowered, kern)
			cp.scheds = append(cp.scheds, ScheduledOp{Name: n.Name, Op: op, Schedule: sched})
		}
		//lint:allow hook-discipline -- site registration happens once at compile time, off the Run hot path
		st.site = telemetry.NewStepSite(work.Model, n.Name)
		clk.lap(&times.Lower)
		cp.bindRows(&st, n)
		clk.lap(&times.Rows)
		cp.steps = append(cp.steps, st)
	}

	// Dense steps get their row-range bodies, and those large enough to pay
	// for it a split over the backend's worker count (dense.go). The lowered
	// kernels report that count too, which keeps it visible when the caller
	// handed in a decorator around the backend that does not forward
	// Workers().
	workers := core.Workers(backend)
	for i := range cp.steps {
		if k := cp.steps[i].kern; k != nil {
			workers = max(workers, k.Counters().Workers)
		}
	}
	for i := range cp.steps {
		bindDense(&cp.steps[i], workers)
	}
	cp.workers = workers

	clk.lap(&times.Lower)

	// Cross-check what the backend actually lowered: each kernel's declared
	// write-conflict discipline must satisfy the re-derived atomic-need
	// analysis for its (operator, strategy) pair.
	if diags := verifyStepLowerings(cp); len(diags) > 0 {
		return nil, fmt.Errorf("program: %s: %w", work.Model, &analysis.VerifyError{Diags: diags})
	}
	clk.lap(&times.Verify)

	// Step-effect dependence analysis (waves.go): derive the dependence DAG
	// and wave schedule from the effect sets, then prove them with the
	// mandatory wave rules — a schedule that would race is unrepresentable
	// as a successful compile.
	cp.buildWaveSchedule()
	clk.lap(&times.Waves)
	if err := cp.verifyWaveSchedule(); err != nil {
		return nil, fmt.Errorf("program: %s: %w", work.Model, err)
	}

	// The row reads a row-subset run walks by (rows.go) are proven the same
	// way: the row-closure rule re-derives them from operand kinds.
	if err := cp.verifyRowClosure(); err != nil {
		return nil, fmt.Errorf("program: %s: %w", work.Model, err)
	}
	clk.lap(&times.Verify)

	cp.stats.Steps = len(cp.steps)
	cp.times = times
	return cp, nil
}

// CompileTimes is where Compile's wall time went, pass by pass. Schedule is the scheduler's ScheduleFor calls: with a tuned engine,
// the simulator grid search, which is most of a tuned compile.
type CompileTimes struct {
	Fuse     time.Duration // region growth and dead-code elimination
	Rewrite  time.Duration // dense rewrites
	Buffers  time.Duration // buffer plan and the arena's views
	Schedule time.Duration // schedule assignment
	Lower    time.Duration // plan compile, backend lowering, regions, weight packing, dense bodies
	Rows     time.Duration // row reads of row-subset runs
	Waves    time.Duration // step-dependence DAG and wave schedule
	Verify   time.Duration // the mandatory verifier rules
}

// passTime is one pass's name and time.
type passTime struct {
	name string
	d    time.Duration
}

// passes lists the passes in the order Compile runs them, with their names.
func (t CompileTimes) passes() []passTime {
	return []passTime{
		{"fuse", t.Fuse}, {"rewrite", t.Rewrite}, {"buffers", t.Buffers}, {"schedule", t.Schedule},
		{"lower", t.Lower}, {"rows", t.Rows}, {"waves", t.Waves}, {"verify", t.Verify},
	}
}

// String renders "fuse 1.2ms, rewrite 0.3ms, …" in pass order.
func (t CompileTimes) String() string {
	var b strings.Builder
	for i, p := range t.passes() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %v", p.name, p.d.Round(time.Microsecond))
	}
	return b.String()
}

// Total is the passes' sum.
func (t CompileTimes) Total() time.Duration {
	var sum time.Duration
	for _, p := range t.passes() {
		sum += p.d
	}
	return sum
}

// CompileTimes reports where Compile's time went, pass by pass.
func (cp *CompiledProgram) CompileTimes() CompileTimes { return cp.times }

// compileArgs are the compile span's arguments: every dense-rewrite decision
// and each pass's time in milliseconds ("schedule_ms", …).
func compileArgs(cp *CompiledProgram) map[string]string {
	args := rewriteArgs(cp.rewrites)
	if args == nil {
		args = map[string]string{}
	}
	for _, p := range cp.times.passes() {
		args[p.name+"_ms"] = fmt.Sprintf("%.3f", float64(p.d)/1e6)
	}
	return args
}

// passClock splits a compile's wall time between passes: lap
// charges the time since the previous lap to a pass.
type passClock struct{ last time.Time }

func (c *passClock) lap(d *time.Duration) {
	now := time.Now()
	*d += now.Sub(c.last)
	c.last = now
}

// stepLabel names a step for its trace span, computed once at compile time
// so the Run-time tracing path performs no string building.
func stepLabel(op NodeOp, name string) string {
	if name == "" {
		return op.String()
	}
	return op.String() + " " + name
}

// Run executes the compiled forward pass on input features x (|V| rows,
// InCols columns). The returned tensor is the program's arena-resident
// output view: it stays valid until the next Run, which overwrites it.
// Clone it to keep results across calls.
func (cp *CompiledProgram) Run(x *tensor.Dense) (*tensor.Dense, error) {
	return cp.RunCtx(context.Background(), x)
}

// revalidate re-checks the step tensors' shape/storage consistency at Run
// time. The views were correct at Compile time, but they alias one shared
// arena: code holding the returned output (or Input/Output accessors) could
// have reshaped a view in place, and the step loop below indexes raw Data
// by Rows*Cols. Allocation-free.
func (cp *CompiledProgram) revalidate() error {
	for i := range cp.steps {
		st := &cp.steps[i]
		for _, d := range [...]*tensor.Dense{st.x, st.y, st.x2, st.out} {
			if d == nil {
				continue
			}
			if d.Rows < 0 || d.Cols < 0 || len(d.Data) != d.Rows*d.Cols {
				return fmt.Errorf("program: step %d (%s %s): tensor shape %dx%d inconsistent with storage length %d",
					i, st.op, st.name, d.Rows, d.Cols, len(d.Data))
			}
		}
	}
	return nil
}

// RunCtx is Run with cancellation: ctx is checked between steps and passed
// through to graph kernels, which honour it at their backend's granularity.
// After a cancelled run the arena holds partial intermediates; the next Run
// overwrites them, so the program remains usable.
func (cp *CompiledProgram) RunCtx(ctx context.Context, x *tensor.Dense) (*tensor.Dense, error) {
	if !cp.running.CompareAndSwap(0, 1) {
		return nil, ErrConcurrentRun
	}
	defer cp.running.Store(0)
	if err := cp.checkInput(x); err != nil {
		return nil, err
	}
	return cp.forward(ctx, x)
}

// checkInput rejects an input that is not the |V| x InCols matrix the program
// was compiled for.
func (cp *CompiledProgram) checkInput(x *tensor.Dense) error {
	if x == nil || x.Rows != cp.input.Rows || x.Cols != cp.input.Cols {
		got := "nil"
		if x != nil {
			got = fmt.Sprintf("%dx%d", x.Rows, x.Cols)
		}
		return fmt.Errorf("program: input must be %dx%d, got %s", cp.input.Rows, cp.input.Cols, got)
	}
	return nil
}

// forward is the full pass on a checked input, for a caller that holds the
// running guard: RunCtx, and RunRows when the full pass is the answer.
func (cp *CompiledProgram) forward(ctx context.Context, x *tensor.Dense) (*tensor.Dense, error) {
	if err := cp.revalidate(); err != nil {
		return nil, err
	}
	// StartSpanCtx adopts the request trace from ctx when one is present
	// (minted at serving admission, DESIGN.md §8); the run span becomes the
	// causal parent of the step spans, and each step span of the kernel
	// spans below it, via the trace's mutation-based current pointer — no
	// per-span context derivation, so the steady state stays zero-alloc.
	run := telemetry.StartSpanCtx(ctx, "program", "run", "forward")
	prevRun := run.MakeCurrent()
	copy(cp.input.Data, x.Data)
	var err error
	if parallelSteps.Load() && cp.stats.MaxWaveWidth > 1 {
		err = cp.runWaves(ctx)
	} else {
		err = cp.runSequential(ctx)
	}
	run.RestoreCurrent(prevRun)
	if err != nil {
		msg := err.Error()
		if err == ctx.Err() {
			msg = "cancelled"
		}
		run.EndErr(msg)
		return nil, err
	}
	run.End()
	return cp.output, nil
}

// runSequential is the classic step loop: one step at a time, each step
// span made the trace's current parent so kernel spans nest below it.
func (cp *CompiledProgram) runSequential(ctx context.Context) error {
	done := ctx.Done()
	for i := range cp.steps {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		st := &cp.steps[i]
		sp := telemetry.StartSpanCtx(ctx, "program", "step", st.label)
		prevStep := sp.MakeCurrent()
		if err := cp.runStep(ctx, st); err != nil {
			sp.RestoreCurrent(prevStep)
			sp.EndErr(err.Error())
			return err
		}
		sp.RestoreCurrent(prevStep)
		sp.End()
	}
	return nil
}

// runStep executes one compiled step against its prebound tensors — a graph
// kernel, a dense step's chunks on the pool, or its body over all rows here —
// and, while telemetry is on, times it.
func (cp *CompiledProgram) runStep(ctx context.Context, st *step) error {
	start := st.site.Begin()
	switch {
	case st.split != nil:
		if err := st.runSplit(ctx); err != nil {
			return err
		}
	case st.kern != nil:
		if err := st.kern.RunCtx(ctx); err != nil {
			return fmt.Errorf("program: %s: %w", st.name, err)
		}
	default:
		st.body(0, st.out.Rows)
	}
	st.site.End(start)
	return nil
}

// Stats reports what compilation did.
func (cp *CompiledProgram) Stats() Stats { return cp.stats }

// Schedules lists the compile-time schedule decision of every graph
// operator, in execution order.
func (cp *CompiledProgram) Schedules() []ScheduledOp { return cp.scheds }

// Program returns the compiled (post-fusion) program.
func (cp *CompiledProgram) Program() *Program { return cp.prog }

// BufferPlan exposes the liveness/slot assignment for inspection and tests.
func (cp *CompiledProgram) BufferPlan() *BufferPlan { return cp.plan }
