package program

import (
	"context"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/telemetry"
	"repro/internal/workpool"
)

// Step-effect dependence analysis: every compiled step's reads and writes
// resolve to arena intervals at compile time (the buffer plan fixed the slot
// of every value, and the arena fixed the offset of every slot), so the
// compiler can build the step-dependence DAG — true, anti and output deps
// from interval overlap — and schedule the steps into waves:
// topological levels whose members are provably independent and may execute
// concurrently. The schedule is verified mandatorily (analysis.VerifyWaves,
// rules step-deps-sound and wave-legal) before Compile returns, extending
// the "an illegal plan is unrepresentable as a successful compile"
// discipline to the parallel schedule itself.
//
// Run-time: when SetParallelSteps(true) is in effect and the program has at
// least one wave wider than one step, RunCtx dispatches each wave onto the
// process-wide worker pool (internal/workpool) and barriers between waves.
// Programs whose every wave has width 1 (a pure chain) keep the sequential
// loop — the schedule proves there is nothing to overlap.

// maxWaveWorkers bounds how many goroutines one wave's steps are dealt to.
const maxWaveWorkers = 8

// parallelSteps is the process-wide wave-execution default, set by the
// CLIs' -parallel-steps flag. Off by default: sequential execution remains
// the baseline; the wave schedule is computed and verified either way.
var parallelSteps atomic.Bool

// SetParallelSteps enables or disables wave-parallel step execution for
// subsequently started runs (compiled programs always carry their verified
// wave schedule; the flag only selects the execution strategy).
func SetParallelSteps(on bool) { parallelSteps.Store(on) }

// ParallelSteps reports whether wave-parallel step execution is enabled.
func ParallelSteps() bool { return parallelSteps.Load() }

// valueInterval resolves value v to its arena effect interval. Constants
// (which own their recorded storage), absent operands and unplanned values
// have no interval — they cannot carry a step hazard.
func (cp *CompiledProgram) valueInterval(v ValueID) (analysis.Interval, bool) {
	if v == NoValue || int(v) >= len(cp.prog.Values) {
		return analysis.Interval{}, false
	}
	val := cp.prog.Values[v]
	if val.Const {
		return analysis.Interval{}, false
	}
	s := cp.plan.Assign[v]
	if s < 0 || s >= len(cp.slotOffsets) {
		return analysis.Interval{}, false
	}
	rows := cp.prog.RowsOf(v, cp.g.NumVertices(), cp.g.NumEdges())
	return analysis.Interval{Off: cp.slotOffsets[s], Len: rows * val.Cols}, true
}

// stepEffects derives every step's read/write effect sets. The
// slices are fresh on every call, so the verification bridge can hand them
// to corruption points without exposing the compiled artifacts.
func (cp *CompiledProgram) stepEffects() []analysis.StepEffects {
	effs := make([]analysis.StepEffects, len(cp.steps))
	for i := range cp.steps {
		st := &cp.steps[i]
		e := analysis.StepEffects{Name: st.name}
		for _, v := range st.reads {
			if iv, ok := cp.valueInterval(v); ok {
				e.Reads = append(e.Reads, iv)
			}
		}
		if iv, ok := cp.valueInterval(st.vout); ok {
			e.Writes = append(e.Writes, iv)
		}
		effs[i] = e
	}
	return effs
}

// intervalsOverlap reports whether any range of a intersects any of b.
func intervalsOverlap(a, b []analysis.Interval) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Len > 0 && y.Len > 0 && x.Off < y.Off+y.Len && y.Off < x.Off+x.Len {
				return true
			}
		}
	}
	return false
}

// buildStepDeps constructs the step-dependence DAG over the effect sets:
// for every ordered pair, a true dep where j reads what i wrote, an anti
// dep where j overwrites what i reads, and an output dep where both write the
// same storage. All hazard edges are kept (no transitive reduction) so the
// verifier's edge-presence rule is exact.
func buildStepDeps(effs []analysis.StepEffects) []analysis.DepEdge {
	var edges []analysis.DepEdge
	for i := range effs {
		for j := i + 1; j < len(effs); j++ {
			a, b := &effs[i], &effs[j]
			if intervalsOverlap(a.Writes, b.Reads) {
				edges = append(edges, analysis.DepEdge{From: i, To: j, Kind: analysis.DepTrue})
			}
			if intervalsOverlap(a.Reads, b.Writes) {
				edges = append(edges, analysis.DepEdge{From: i, To: j, Kind: analysis.DepAnti})
			}
			if intervalsOverlap(a.Writes, b.Writes) {
				edges = append(edges, analysis.DepEdge{From: i, To: j, Kind: analysis.DepOutput})
			}
		}
	}
	return edges
}

// computeWaves assigns each step its longest-path level in the DAG and
// groups steps by level: wave w holds every step whose deepest dependence
// chain has length w. Steps are in execution order, and every edge points
// forward, so one pass in index order finalizes the levels.
func computeWaves(n int, edges []analysis.DepEdge) [][]int {
	if n == 0 {
		return nil
	}
	preds := make([][]int, n)
	for _, e := range edges {
		preds[e.To] = append(preds[e.To], e.From)
	}
	level := make([]int, n)
	maxLevel := 0
	for j := 0; j < n; j++ {
		for _, f := range preds[j] {
			if level[f]+1 > level[j] {
				level[j] = level[f] + 1
			}
		}
		if level[j] > maxLevel {
			maxLevel = level[j]
		}
	}
	waves := make([][]int, maxLevel+1)
	for j := 0; j < n; j++ {
		waves[level[j]] = append(waves[level[j]], j)
	}
	return waves
}

// buildWaveSchedule computes the dependence DAG and wave schedule from the
// effect sets and folds the shape into the stats.
func (cp *CompiledProgram) buildWaveSchedule() {
	cp.depEdges = buildStepDeps(cp.stepEffects())
	cp.waves = computeWaves(len(cp.steps), cp.depEdges)
	cp.stats.Waves = len(cp.waves)
	for _, w := range cp.waves {
		if len(w) > cp.stats.MaxWaveWidth {
			cp.stats.MaxWaveWidth = len(w)
		}
	}
	if cp.stats.MaxWaveWidth > 1 {
		cp.waveJob = workpool.NewJob(cp.waveRange)
	}
}

// Waves exposes the verified wave schedule (step indices per wave) for
// inspection and tests.
func (cp *CompiledProgram) Waves() [][]int {
	out := make([][]int, len(cp.waves))
	for i, w := range cp.waves {
		out[i] = append([]int(nil), w...)
	}
	return out
}

// waveRange is the pool chunk body of a wave: run steps [lo, hi) of the
// current wave.
func (cp *CompiledProgram) waveRange(lo, hi int) {
	for _, idx := range cp.wave[lo:hi] {
		cp.execStep(idx)
	}
}

// execStep runs one step of the current wave, recording a step error or
// panic as the run's first error so a crashing step cannot take a pool
// helper (or the process) down with it. The remaining steps of the wave
// still run: they are independent by construction.
func (cp *CompiledProgram) execStep(idx int) {
	st := &cp.steps[idx]
	defer func() {
		if r := recover(); r != nil {
			cp.failWave(stepPanicError(st, r))
		}
	}()
	if err := cp.runStepSpan(cp.wctx, st); err != nil {
		cp.failWave(err)
	}
}

// runStepSpan runs st under a step span parented to the run span (the
// trace's current parent is left alone: concurrent steps cannot take turns
// mutating it).
func (cp *CompiledProgram) runStepSpan(ctx context.Context, st *step) error {
	sp := telemetry.StartSpanCtx(ctx, "program", "step", st.label)
	err := cp.runStep(ctx, st)
	if err != nil {
		sp.EndErr(err.Error())
	} else {
		sp.End()
	}
	return err
}

// failWave records the wave's first error.
func (cp *CompiledProgram) failWave(err error) {
	cp.wmu.Lock()
	if cp.werr == nil {
		cp.werr = err
	}
	cp.wmu.Unlock()
}

// runWaves executes the verified wave schedule: width-1 waves run inline on
// this goroutine; wider waves are one pool job with a step per chunk, this
// goroutine claiming steps alongside the helpers, and the job's completion
// is the barrier before the next wave. A step that itself splits (a GEMM, a
// graph kernel) submits a nested job from whichever goroutine runs it; the
// pool's caller-participates rule keeps that deadlock-free. Step spans are
// siblings parented to the run span (the trace's current parent is left at
// the run span — concurrent steps cannot take turns mutating it), and ctx
// is checked between waves and between step claims, with kernels honouring
// it inside a step. Steady state allocates nothing: the job is bound at
// compile time and offers are value structs.
func (cp *CompiledProgram) runWaves(ctx context.Context) error {
	cp.wctx = ctx
	cp.werr = nil
	done := ctx.Done()
	for _, wave := range cp.waves {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if len(wave) == 1 {
			if err := cp.runStepSpan(ctx, &cp.steps[wave[0]]); err != nil {
				return err
			}
			continue
		}
		cp.wave = wave
		poolErr := workpool.Run(ctx, cp.waveJob, len(wave), 1, maxWaveWorkers)
		cp.wmu.Lock()
		err := cp.werr
		cp.wmu.Unlock()
		if err == nil {
			err = poolErr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
