package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/program"
	"repro/internal/schedule"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// The traced run's per-layer numbers for one (model, dataset): every timing
// is a span of this package around an exported call. Bytes and flops are
// computed from shapes, never measured.

// replayReps is the minimum number of standalone executions behind every
// replayed step's median; armReps is the same for the other-setting arms.
const (
	replayReps = 10
	armReps    = 10
)

// timedEngine is the tuned engine with a span around every schedule choice.
type timedEngine struct {
	*models.TunedEngine
	backend core.ExecBackend
	tr      *tracer
	parent  int
	calls   int
	// candidates counts the schedules the tuner simulates: the pruned space
	// of every distinct task (repeats hit the tuner's cache).
	candidates int
	seen       map[string]bool
}

func (e *timedEngine) ComputeBackend() core.ExecBackend { return e.backend }

func (e *timedEngine) ScheduleFor(t schedule.Task) core.Schedule {
	key := fmt.Sprintf("%v/%d/%d/%d", t.Op, t.Feat, t.ACols, t.BCols)
	if !e.seen[key] {
		e.seen[key] = true
		e.candidates += len(schedule.PrunedSpace(t))
	}
	e.calls++
	id := e.tr.begin("schedule.tune", e.parent)
	defer e.tr.end(id)
	return e.TunedEngine.ScheduleFor(t)
}

// timedBackend puts a span around every kernel lowering. It hands back the
// inner backend's kernels untouched, so compilation sees the same kernel
// types (sharded lowerings included) as without it.
type timedBackend struct {
	core.ExecBackend
	tr     *tracer
	parent int
}

func (b *timedBackend) Lower(p *core.Plan, g *graph.Graph, o core.Operands) (core.CompiledKernel, error) {
	id := b.tr.begin("core.lower", b.parent)
	defer b.tr.end(id)
	return b.ExecBackend.Lower(p, g, o)
}

// stepRow is one replayed step in the trace file.
type stepRow struct {
	Step  int     `json:"step"`
	Op    string  `json:"op"`
	Name  string  `json:"name"`
	Class string  `json:"class"` // gemm, elementwise, agg or msg
	MsP50 float64 `json:"ms_p50"`
	Reps  int     `json:"reps"`
	// BytesComputed and FlopsComputed come from operand shapes.
	BytesComputed int64   `json:"bytes_computed"`
	FlopsComputed int64   `json:"flops_computed"`
	Edges         int64   `json:"edges"`
	GBps          float64 `json:"gbps_computed"`
	CeilingShare  float64 `json:"ceiling_share"`
}

// llcBytes reads the last-level cache size, or assumes 32 MiB.
func llcBytes() int {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err == nil {
		s := strings.TrimSpace(string(b))
		if kb, err := strconv.Atoi(strings.TrimSuffix(s, "K")); err == nil && strings.HasSuffix(s, "K") {
			return kb << 10
		}
	}
	return 32 << 20
}

// parallelBest runs f on every CPU at once, rounds times, and returns the
// shortest round.
func parallelBest(rounds int, f func(worker int)) time.Duration {
	best := time.Duration(0)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < runtime.NumCPU(); w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				f(w)
			}(w)
		}
		wg.Wait()
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// machineCeilings measures, in this run, what the host can do: a copy loop
// over arrays of arrayBytes each (4x the last-level cache unless smoke) on
// all CPUs, and the packed GEMM at a cache-resident 256^3 on all CPUs.
func machineCeilings(smoke bool) (copyGBps, gemmGflops float64, llc, arrayBytes int) {
	llc = llcBytes()
	arrayBytes = 4 * llc
	if smoke {
		arrayBytes = 8 << 20
	}
	n := arrayBytes / 4
	src, dst := make([]float32, n), make([]float32, n)
	for i := range src {
		src[i] = float32(i)
	}
	chunk := n / runtime.NumCPU()
	d := parallelBest(4, func(w int) { copy(dst[w*chunk:(w+1)*chunk], src[w*chunk:(w+1)*chunk]) })
	copyGBps = float64(2*4*chunk*runtime.NumCPU()) / d.Seconds() / 1e9

	const dim, reps = 256, 12
	type gemmSet struct {
		a, out *tensor.Dense
		pb     *tensor.PackedB
	}
	sets := make([]gemmSet, runtime.NumCPU())
	for i := range sets {
		rng := rand.New(rand.NewSource(int64(i)))
		a, b := tensor.NewDense(dim, dim), tensor.NewDense(dim, dim)
		a.FillRandom(rng, 1)
		b.FillRandom(rng, 1)
		sets[i] = gemmSet{a: a, out: tensor.NewDense(dim, dim), pb: tensor.PackB(b)}
	}
	d = parallelBest(4, func(w int) {
		for r := 0; r < reps; r++ {
			tensor.GemmPackedInto(sets[w].out, sets[w].a, sets[w].pb)
		}
	})
	gemmGflops = float64(tensor.GEMMFlops(dim, dim, dim)) * reps * float64(runtime.NumCPU()) / d.Seconds() / 1e9
	// Hand the copy arrays back now, or the runtime's background scavenger
	// releases them during the set-up being timed next.
	src, dst = nil, nil
	debug.FreeOSMemory()
	return copyGBps, gemmGflops, llc, arrayBytes
}

// profile is everything the traced run learns about one model on one
// dataset.
type profile struct {
	metrics map[string]float64
	steps   []stepRow
	s       *inproc
	// runMS are the timed passes of the measured phase; failed counts the
	// passes that erred or strayed from the warm-up output.
	runMS  []float64
	failed int
}

// profileCompile repeats the set-up with spans around each part and returns
// the compiled workload plus the set-up metrics.
func profileCompile(w workload, seed int64, tr *tracer) (*inproc, map[string]float64, error) {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	timed := func(name string, f func() error) error {
		id := tr.begin(name, root)
		defer tr.end(id)
		return f()
	}
	s := &inproc{backend: newBackend()}
	var err error
	if err = timed("datasets.load", func() error {
		s.g, _, err = datasets.Load(w.Dataset)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if s.model, err = models.ByName(w.Models[0]); err != nil {
		return nil, nil, err
	}
	s.x = features(s.g.NumVertices(), w.Feat, seed)
	numV, numE := s.g.NumVertices(), s.g.NumEdges()

	compileID := tr.begin("models.compile", root)
	s.eng = models.NewTunedEngine(gpu.V100())
	te := &timedEngine{
		TunedEngine: s.eng, tr: tr, parent: compileID, seen: map[string]bool{},
		backend: &timedBackend{ExecBackend: s.backend, tr: tr, parent: compileID},
	}
	s.cp, err = models.CompileModel(s.model, s.g, w.Feat, w.Classes, te)
	tr.end(compileID)
	if err != nil {
		return nil, nil, err
	}
	s.eng.Compute = s.backend

	// The passes CompileModel runs inside, run again standalone so each
	// has its own time.
	var rec, fused *program.Program
	if err = timed("models.record", func() error {
		rec, err = models.Record(s.model, s.g, w.Feat, w.Classes)
		return err
	}); err != nil {
		return nil, nil, err
	}
	_ = timed("program.fuse", func() error {
		fused, _ = program.FuseRegions(rec, numV, numE, program.DefaultCostModel())
		fused, _ = program.EliminateDead(fused)
		return nil
	})
	if err = timed("program.plan_buffers", func() error {
		_, err := program.PlanBuffers(fused, numV, numE)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err = timed("program.verify", func() error {
		if rep := s.cp.Verify(); !rep.OK() {
			return fmt.Errorf("verify: %v", rep)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	_ = timed("tensor.pack", func() error {
		for i := range fused.Nodes {
			if n := &fused.Nodes[i]; n.Op == program.OpGEMM {
				tensor.PackB(constOf(fused, n.Y))
			}
		}
		return nil
	})

	// The compile span's self time already excludes its children (every
	// tune and lower span); the passes replayed above come off it too.
	spans := tr.snapshot()
	ms := totalByName(spans)
	other := float64(selfTimes(spans)["models.compile"])/1e6 -
		ms["models.record"] - ms["program.fuse"] - ms["program.plan_buffers"] - ms["program.verify"] - ms["tensor.pack"]
	st := s.cp.Stats()
	width := 0
	for _, wave := range s.cp.Waves() {
		if len(wave) > width {
			width = len(wave)
		}
	}
	m := map[string]float64{
		"datasets.load_ms":         ms["datasets.load"],
		"models.record_ms":         ms["models.record"],
		"models.compile_ms":        ms["models.compile"],
		"program.fuse_ms":          ms["program.fuse"],
		"program.plan_buffers_ms":  ms["program.plan_buffers"],
		"program.verify_ms":        ms["program.verify"],
		"program.compile_other_ms": other,
		"schedule.tune_ms":         ms["schedule.tune"],
		"schedule.tune_calls":      float64(te.calls),
		"schedule.candidates":      float64(te.candidates),
		"core.lower_ms":            ms["core.lower"],
		"tensor.pack_ms":           ms["tensor.pack"],
		"program.steps":            float64(st.Steps),
		"program.graph_kernels":    float64(st.GraphKernels),
		"program.fused_regions":    float64(st.FusedRegions),
		"program.waves":            float64(len(s.cp.Waves())),
		"program.wave_width_max":   float64(width),
		"program.arena_mb":         float64(st.ArenaFloats) * 4 / (1 << 20),
	}
	if te.candidates > 0 {
		m["gpu.sim_ms_per_candidate"] = ms["schedule.tune"] / float64(te.candidates)
	}
	return s, m, s.warmup()
}

// constOf returns the tensor of a record-time constant value.
func constOf(p *program.Program, v program.ValueID) *tensor.Dense {
	for i := range p.Nodes {
		if n := &p.Nodes[i]; n.Op == program.OpConst && n.Out == v {
			return n.Const
		}
	}
	return nil
}

// operand builds a same-shape stand-in for value v: the recorded constant
// itself, or values in [0.5, 1.5) so divisions and exponentials stay finite.
func operand(p *program.Program, v program.ValueID, g *graph.Graph, rng *rand.Rand) *tensor.Dense {
	if v == program.NoValue {
		return nil
	}
	if c := constOf(p, v); c != nil {
		return c
	}
	d := tensor.NewDense(p.RowsOf(v, g.NumVertices(), g.NumEdges()), p.Values[v].Cols)
	for i := range d.Data {
		d.Data[i] = 0.5 + rng.Float32()
	}
	return d
}

// applyChain is what a compiled unary step does to its output.
func applyChain(chain []program.Unary, d *tensor.Dense) {
	for _, u := range chain {
		u.Apply(d)
	}
}

// replaySteps walks the compiled program and re-executes each step alone,
// on same-shape operands, through the public API of its layer. The steps
// run in program order, round after round, so each one meets the cache state
// the others leave behind, as it does inside a real pass (a step repeated
// back to back keeps its operands cached and reads up to 2x faster).
func replaySteps(s *inproc, tr *tracer) ([]stepRow, error) {
	root := tr.begin("replay", 0)
	defer tr.end(root)
	p := s.cp.Program()
	inPlace := s.cp.BufferPlan().InPlace
	scheds := s.cp.Schedules()
	numE := int64(s.g.NumEdges())
	rng := rand.New(rand.NewSource(7))
	elems := func(d *tensor.Dense) int64 {
		if d == nil {
			return 0
		}
		return int64(len(d.Data))
	}
	var rows []stepRow
	var runs []func()
	var runErr error
	graphOps := 0
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Op == program.OpInput || n.Op == program.OpConst {
			continue
		}
		x, y := operand(p, n.X, s.g, rng), operand(p, n.Y, s.g, rng)
		out := tensor.NewDense(p.RowsOf(n.Out, s.g.NumVertices(), s.g.NumEdges()), p.Values[n.Out].Cols)
		row := stepRow{Step: len(rows), Op: n.Op.String(), Name: n.Name, Class: "elementwise"}
		var run func()
		switch n.Op {
		case program.OpGEMM:
			pb := tensor.PackB(y)
			run = func() { tensor.GemmPackedInto(out, x, pb) }
			row.Class = "gemm"
			row.FlopsComputed = tensor.GEMMFlops(x.Rows, x.Cols, out.Cols)
			row.BytesComputed = 4 * (elems(x) + elems(y) + elems(out))
		case program.OpUnary:
			passes := int64(len(n.Chain))
			if inPlace[i] {
				run = func() { applyChain(n.Chain, x) }
			} else {
				run = func() { copy(out.Data, x.Data); applyChain(n.Chain, out) }
				passes++
			}
			row.BytesComputed = 8 * elems(out) * passes
		case program.OpAddScaled:
			run = func() { tensor.AddScaledInto(out, x, y, n.Scale) }
			row.BytesComputed = 12 * elems(out)
		case program.OpHeadMerge:
			run = func() { tensor.RowMeanInto(out, x) }
			row.BytesComputed = 4 * (elems(x) + elems(out))
		case program.OpConcat:
			run = func() { tensor.ConcatInto(out, x, y) }
			row.BytesComputed = 8 * elems(out)
		case program.OpGraph:
			op := n.GOp
			op.Name = n.Name
			plan, err := core.Compile(op, scheds[graphOps].Schedule)
			graphOps++
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", n.Name, err)
			}
			// A fusion region is re-composed the way program.Compile does
			// it: operand chains staged into a buffer before the kernel, the
			// epilogue applied in place after it.
			ax, ay := x, y
			var pre, post []core.RegionStage
			var staged int64
			if r := n.Region; r != nil && r.Absorbed > 0 {
				if len(r.PreX) > 0 {
					st := tensor.NewDense(x.Rows, x.Cols)
					pre = append(pre, func() { copy(st.Data, x.Data); applyChain(r.PreX, st) })
					ax, staged = st, staged+elems(x)*int64(1+len(r.PreX))
				}
				if len(r.PreY) > 0 {
					st := tensor.NewDense(y.Rows, y.Cols)
					pre = append(pre, func() { copy(st.Data, y.Data); applyChain(r.PreY, st) })
					ay, staged = st, staged+elems(y)*int64(1+len(r.PreY))
				}
				if len(r.Post) > 0 {
					post = append(post, func() { applyChain(r.Post, out) })
					staged += elems(out) * int64(len(r.Post))
				}
			}
			kern, err := s.backend.Lower(plan, s.g, core.Operands{
				A: tensor.Typed{Kind: op.AKind, T: ax},
				B: tensor.Typed{Kind: op.BKind, T: ay},
				C: tensor.Typed{Kind: op.CKind, T: out},
			})
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", n.Name, err)
			}
			if len(pre)+len(post) > 0 {
				kern = core.ComposeRegion(kern, pre, post, n.Region.Name, s.g)
			}
			run = func() {
				if err := kern.Run(); err != nil {
					runErr = err
				}
			}
			row.Class = "agg"
			if op.CKind == tensor.EdgeK {
				row.Class = "msg"
			}
			var aCols, bCols int64
			if ax != nil {
				aCols = int64(ax.Cols)
			}
			if ay != nil {
				bCols = int64(ay.Cols)
			}
			// Per edge: the A and B rows and two 4-byte ids; per output
			// row: one write; plus what the region's stages stream.
			row.Edges = numE
			row.BytesComputed = 4*(numE*(aCols+bCols)+elems(out)) + 8*numE + 8*staged
			row.FlopsComputed = numE * int64(out.Cols) * int64(op.EdgeOp.FLOPs()+op.GatherOp.FLOPs())
		default:
			return nil, fmt.Errorf("replay: unexpected step op %s", n.Op)
		}
		rows, runs = append(rows, row), append(runs, run)
	}
	ms := make([][]float64, len(rows))
	for rep := 0; rep < replayReps; rep++ {
		for i, run := range runs {
			id := tr.begin("replay.step "+rows[i].Op+" "+rows[i].Name, root)
			start := time.Now()
			run()
			ms[i] = append(ms[i], float64(time.Since(start))/1e6)
			tr.end(id)
			if runErr != nil {
				return nil, fmt.Errorf("replay %s: %w", rows[i].Name, runErr)
			}
		}
	}
	for i := range rows {
		r := &rows[i]
		r.MsP50, r.Reps = median(ms[i]), replayReps
		if r.MsP50 > 0 {
			r.GBps = float64(r.BytesComputed) / (r.MsP50 / 1e3) / 1e9
		}
	}
	return rows, nil
}

// layerMetrics folds the replayed steps into the named per-layer metrics.
// runP50 is the whole pass's median, copyGBps and gemmGflops the ceilings.
func layerMetrics(rows []stepRow, runP50, copyGBps, gemmGflops float64, m map[string]float64) {
	var all, agg, msg, gemm, elem float64
	var kernBytes, elemBytes, gemmFlops, edges int64
	for i := range rows {
		r := &rows[i]
		all += r.MsP50
		// A GEMM is held against the flop ceiling, everything else against
		// the copy ceiling.
		if copyGBps > 0 {
			r.CeilingShare = r.GBps / copyGBps
		}
		switch r.Class {
		case "agg", "msg":
			if r.Class == "agg" {
				agg += r.MsP50
			} else {
				msg += r.MsP50
			}
			kernBytes += r.BytesComputed
			edges += r.Edges
		case "gemm":
			gemm += r.MsP50
			gemmFlops += r.FlopsComputed
			if gemmGflops > 0 && r.MsP50 > 0 {
				r.CeilingShare = float64(r.FlopsComputed) / (r.MsP50 / 1e3) / 1e9 / gemmGflops
			}
		default:
			elem += r.MsP50
			elemBytes += r.BytesComputed
		}
	}
	rate := func(n int64, ms float64) float64 {
		if ms <= 0 {
			return 0
		}
		return float64(n) / (ms / 1e3)
	}
	m["program.step_overhead_ms"] = runP50 - all
	m["core.agg_ms"] = agg
	m["core.msg_ms"] = msg
	m["core.edges_per_s"] = rate(edges, agg+msg)
	m["core.kernel_gbps"] = rate(kernBytes, agg+msg) / 1e9
	m["tensor.gemm_ms"] = gemm
	m["tensor.gemm_gflops"] = rate(gemmFlops, gemm) / 1e9
	m["tensor.elementwise_ms"] = elem
	m["tensor.elementwise_gbps"] = rate(elemBytes, elem) / 1e9
	if runP50 > 0 {
		m["core.kernel_share"] = (agg + msg) / runP50
		m["tensor.dense_share"] = (gemm + elem) / runP50
	}
	if copyGBps > 0 {
		m["core.kernel_roof_share"] = m["core.kernel_gbps"] / copyGBps
	}
	if gemmGflops > 0 {
		m["tensor.gemm_roof_share"] = m["tensor.gemm_gflops"] / gemmGflops
	}
}

// runArms measures the same layers under their other setting: the model
// compiled at shards=4, and the program run with wave-parallel steps. They
// gate nothing; they are the keep-or-delete numbers of ROADMAP item 2c.
func runArms(s *inproc, w workload, tr *tracer, m map[string]float64) error {
	root := tr.begin("arms", 0)
	defer tr.end(root)
	if w.ShardArm {
		const k = 4
		id := tr.begin("shard.partition", root)
		start := time.Now()
		plan, err := shard.Partition(s.g, k)
		m["shard.partition_ms"] = float64(time.Since(start)) / 1e6
		tr.end(id)
		if err != nil {
			return err
		}
		m["shard.edge_cut"] = plan.EdgeCut
		// The tuner's cache is keyed by graph and task, so the second
		// compile pays no grid search.
		eng := &models.TunedEngine{Dev: s.eng.Dev, Tuner: s.eng.Tuner, Compute: core.NewShardedParallelBackend(0, k)}
		cp, err := models.CompileModel(s.model, s.g, w.Feat, w.Classes, eng)
		if err != nil {
			return err
		}
		sharded := &inproc{cp: cp, x: s.x, first: s.first}
		id = tr.begin("shard.run", root)
		ms, failed := sharded.timedRuns(0, armReps, nil, 0)
		tr.end(id)
		if failed > 0 {
			return fmt.Errorf("shards=%d: %d of %d passes differ from the unsharded output", k, failed, failed+len(ms))
		}
		m["shard.run_ms_p50"] = median(ms)
	}
	if w.WaveArm {
		program.SetParallelSteps(true)
		id := tr.begin("program.wave_run", root)
		ms, failed := s.timedRuns(0, armReps, nil, 0)
		tr.end(id)
		program.SetParallelSteps(false)
		if failed > 0 {
			return fmt.Errorf("parallel steps: %d of %d passes differ from the sequential output", failed, failed+len(ms))
		}
		m["program.wave_run_ms_p50"] = median(ms)
	}
	return nil
}

// overheadBlock is how many passes run with spans on, then off, in turn.
const overheadBlock = 4

// profileModel is the traced run of one model on one dataset: ceilings,
// set-up by part, a timed phase with spans on and off in alternating
// blocks, allocation counts, step replay and the arms.
func profileModel(w workload, o options, tr *tracer) (profile, error) {
	m := map[string]float64{}
	copyGBps, gemmGflops, llc, arrayBytes := machineCeilings(o.smoke)
	fmt.Printf("machine: copy %.2f GB/s over 2 arrays of %d MiB each (last-level cache %d MiB), packed GEMM %.2f GFLOP/s at 256^3, both on %d CPUs\n",
		copyGBps, arrayBytes>>20, llc>>20, gemmGflops, runtime.NumCPU())
	m["machine.copy_gbps"], m["machine.gemm_gflops"] = copyGBps, gemmGflops

	s, setup, err := profileCompile(w, o.seed, tr)
	if err != nil {
		return profile{}, err
	}
	for k, v := range setup {
		m[k] = v
	}

	phase := tr.begin("measure", 0)
	var on, off []float64
	failed := 0
	deadline := time.Now().Add(o.phase())
	for len(off) == 0 || time.Now().Before(deadline) {
		ms, f := s.timedRuns(0, overheadBlock, tr, phase)
		on, failed = append(on, ms...), failed+f
		tr.setOff(true)
		ms, f = s.timedRuns(0, overheadBlock, tr, phase)
		tr.setOff(false)
		off, failed = append(off, ms...), failed+f
	}
	tr.end(phase)
	all := append(append([]float64(nil), on...), off...)
	sorted := sortedCopy(all)
	runP50 := percentile(sorted, 50)
	m["program.run_ms_p50"] = runP50
	m["program.run_ms_p90"] = percentile(sorted, 90)
	if base := median(off); base > 0 {
		m["trace.overhead_share"] = median(on)/base - 1
	}

	allocs, bytes := memDelta(func() {
		for i := 0; i < armReps; i++ {
			_, _ = s.cp.Run(s.x)
		}
	})
	m["program.allocs_per_run"] = float64(allocs) / armReps
	m["program.bytes_per_run"] = float64(bytes) / armReps

	rows, err := replaySteps(s, tr)
	if err != nil {
		return profile{}, err
	}
	layerMetrics(rows, runP50, copyGBps, gemmGflops, m)
	if err := runArms(s, w, tr, m); err != nil {
		return profile{}, err
	}
	return profile{metrics: m, steps: rows, s: s, runMS: all, failed: failed}, nil
}
