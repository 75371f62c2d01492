package program

import (
	"context"
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/tensor"
	"repro/internal/vec"
	"repro/internal/workpool"
)

// Dense step splitting: GEMM, unary chains, concat, add-scaled and
// head-merge are all row-wise — output row r depends on operand row r alone
// — so a step splits into disjoint row ranges that run concurrently on the
// shared worker pool (internal/workpool). Every output element keeps its
// accumulation order, so a split step is bit-identical to the sequential
// one. The decision is made once, at compile time, from the step's shape
// and the backend's worker count; the chunk body and the pool job are bound
// then too, so a split step allocates nothing per Run.

// Cost estimates of the dense operators, in nanoseconds, measured
// single-threaded on the 2-CPU bench host with the kernels that run them
// (`make bench-kernels`: BenchmarkGemmPacked, BenchmarkExp and
// BenchmarkElementwise over sign-random, all-positive and rectified inputs;
// EXPERIMENTS.md "Dense rewrites" and "GAT's message path"). They only rank
// steps against the two thresholds below; a 2x error moves a step's chunk
// count, not its result.
const (
	copyNsPerElem    = 0.3
	concatNsPerElem  = 0.55 // per output element
	rowMeanNsPerElem = 1.0  // per input element
)

// perKernelSet picks a cost by the kernels this process dispatches to.
func perKernelSet(vecNs, goNs float64) float64 {
	if vec.Enabled() {
		return vecNs
	}
	return goNs
}

// gemmNsPerFlop is the packed GEMM: the AVX2 kernels run 0.021-0.027 ns/flop
// over the models' seven shapes whatever share of A is zero; the Go loop
// 0.16-0.19 on dense inputs (and 0.40-0.44 behind a ReLU, where its zero-skip
// branch mispredicts — the estimate keeps the dense figure, so such a step
// only splits sooner).
func gemmNsPerFlop() float64 { return perKernelSet(0.024, 0.19) }

// reluNsPerElem is ReLU or leaky ReLU in place: 0.16-0.18 vectorised, 1.0-1.4
// as the branch-free Go loops, on every input. (The branchy loops they
// replaced cost 5.3 behind a GEMM and 0.5 on positive data, which the old
// single figure of 0.5 was measured on.)
func reluNsPerElem() float64 { return perKernelSet(0.2, 1.2) }

// expNsPerElem is the float32 exponential in place (tensor.Exp): 1.2 as the
// eight-lane kernel, 5.9 as the Go definition it is the twin of.
func expNsPerElem() float64 { return perKernelSet(1.2, 5.9) }

// addScaledNsPerElem is out = a + s*b.
func addScaledNsPerElem() float64 { return perKernelSet(0.6, 0.85) }

const (
	// denseInlineNs is the estimated single-threaded duration below which a
	// dense step runs on the caller exactly as before. Measured on the 2-CPU
	// host (EXPERIMENTS.md): a parked helper takes ~0.1 ms to join, so a
	// two-way split of a packed GEMM is a wash at 0.2 ms (0.99x), 1.32x at
	// 0.4 ms, 1.59x at 0.8 ms and 1.9x from 3 ms; when the second CPU is
	// deep idle the helper misses a sub-millisecond step altogether and the
	// offer costs ~40 us for nothing. Half a millisecond is where a split
	// reliably saves more than the wake-up it spends, and it keeps the
	// sub-0.3 ms GEMMs of small served graphs off the pool, whose helper
	// would otherwise take a CPU from HTTP admission and JSON.
	denseInlineNs = 500e3
	// denseChunkNs is the target duration of one row-range chunk: long
	// enough to amortise a chunk claim (one atomic add), short enough that a
	// deadline cuts a long GEMM promptly and a late-starting helper still
	// finds work.
	denseChunkNs = 100e3
)

// denseSplit is one dense step's compile-time split plan.
type denseSplit struct {
	job     *workpool.Job
	chunk   int // rows per chunk
	workers int
}

// denseCostNs estimates a dense step's single-threaded duration from its
// shape, the chain it absorbed included: the split/inline decision is about
// what the step's chunks really do.
func denseCostNs(st *step) float64 {
	out := float64(len(st.out.Data))
	post := chainCostNs(st.post, false, len(st.out.Data))
	switch st.op {
	case OpGEMM:
		k := st.x.Cols
		if st.x2 != nil {
			k += st.x2.Cols
		}
		return gemmNsPerFlop()*float64(tensor.GEMMFlops(st.x.Rows, k, st.out.Cols)) + post
	case OpUnary:
		return chainCostNs(st.chain, !st.inPlace, len(st.out.Data))
	case OpAddScaled:
		return addScaledNsPerElem()*out + post
	case OpConcat:
		return concatNsPerElem * out
	case OpHeadMerge:
		return rowMeanNsPerElem * float64(len(st.x.Data))
	}
	return 0
}

// chainCostNs estimates applying chain to elems elements, after copying them
// from another buffer when copied is set.
func chainCostNs(chain []Unary, copied bool, elems int) float64 {
	per := 0.0
	if copied {
		per = copyNsPerElem
	}
	for _, u := range chain {
		if u.Kind == UnaryExp {
			per += expNsPerElem()
		} else {
			per += reluNsPerElem()
		}
	}
	return per * float64(elems)
}

// denseChunkFaults is the fault-injection site at the head of every split
// dense chunk (one atomic load each while disarmed).
func denseChunkFaults() {
	faultinject.MaybeSleep(faultinject.SlowDenseChunk)
	faultinject.MaybePanic(faultinject.DenseChunkPanic)
}

// applyChain runs an absorbed elementwise chain over rows [lo, hi) of out, in
// place: the rows the calling chunk has just computed.
func applyChain(chain []Unary, out *tensor.Dense, lo, hi int) {
	o := out.RowRange(lo, hi)
	for _, u := range chain {
		u.Apply(&o)
	}
}

// bindDense binds a dense step's row-range body — what it does to output rows
// [lo, hi), everything the rewrite stage folded into it included — and
// decides whether the step splits over the pool. The body captures the step's
// tensors by pointer: they are arena views fixed for the life of the compiled
// program. An inline step is the body over all rows.
func bindDense(st *step, workers int) {
	out, x, y, post := st.out, st.x, st.y, st.post
	switch st.op {
	case OpGEMM:
		pb, x2, pb2 := st.pb, st.x2, st.pb2
		st.body = func(lo, hi int) {
			tensor.GemmPackedRowsInto(out, x, pb, lo, hi)
			if pb2 != nil {
				tensor.GemmPackedRowsAccInto(out, x2, pb2, lo, hi)
			}
			applyChain(post, out, lo, hi)
		}
	case OpUnary:
		src := x
		if st.inPlace {
			src = nil
		}
		st.body = chainRows(out, src, st.chain)
	case OpAddScaled:
		scale := st.scale
		st.body = func(lo, hi int) {
			o, a, b := out.RowRange(lo, hi), x.RowRange(lo, hi), y.RowRange(lo, hi)
			tensor.AddScaledInto(&o, &a, &b, scale)
			applyChain(post, out, lo, hi)
		}
	case OpHeadMerge:
		st.body = func(lo, hi int) {
			o, a := out.RowRange(lo, hi), x.RowRange(lo, hi)
			tensor.RowMeanInto(&o, &a)
		}
	case OpConcat:
		st.body = func(lo, hi int) {
			o, a, b := out.RowRange(lo, hi), x.RowRange(lo, hi), y.RowRange(lo, hi)
			tensor.ConcatInto(&o, &a, &b)
		}
	default:
		return
	}
	st.split = newDenseSplit(st.out.Rows, denseCostNs(st), workers, st.body)
}

// newDenseSplit applies the split rule to a row-wise body over [0, rows)
// whose single-threaded cost is estimated at costNs: nil (run it on the
// caller) below denseInlineNs or with one worker, else a pool job over
// chunks of about denseChunkNs, each passing the fault-injection site first.
func newDenseSplit(rows int, costNs float64, workers int, body func(lo, hi int)) *denseSplit {
	if workers <= 1 || rows < 2 || costNs < denseInlineNs {
		return nil
	}
	chunk := max(1, int(float64(rows)*denseChunkNs/costNs))
	job := workpool.NewJob(func(lo, hi int) {
		denseChunkFaults()
		body(lo, hi)
	})
	return &denseSplit{job: job, chunk: chunk, workers: workers}
}

// runSplit executes a split dense step on the pool. A chunk panic, on the
// caller or on a helper, comes back as an error naming the step; a deadline
// stops the step between chunks.
func (st *step) runSplit(ctx context.Context) error {
	err := workpool.Run(ctx, st.split.job, st.out.Rows, st.split.chunk, st.split.workers)
	if pe, ok := err.(*workpool.PanicError); ok {
		return stepPanicError(st, pe.Value)
	}
	return err
}

// stepPanicError is the error a panic inside step st surfaces as.
func stepPanicError(st *step, v any) error {
	return fmt.Errorf("program: step %s panicked: %v", st.name, v)
}

// StepMode says how one compiled step executes: on the calling goroutine
// (Workers == 1) or in chunks over the shared pool.
type StepMode struct {
	Op, Name string
	// Workers is how many goroutines the step's chunks are offered to: the
	// caller plus Workers-1 pool helpers. 1 means the step runs inline.
	Workers int
	// Walk and Epilogue are a graph step's core.Counters fields of the same
	// names: how the host kernel traverses the graph (core.WalkRows,
	// core.WalkEdgeChunks), and whether a fused output epilogue runs inside
	// the producing chunk or as a stage after the kernel. Empty for dense
	// steps and sequential backends.
	Walk, Epilogue string
	// InteriorStages is, for the head of a row-resident region, how many
	// recorded steps run inside its row chunks (core.Counters.InteriorStages);
	// zero for every other step.
	InteriorStages int
	// P50 is the median wall time of the step's recent runs (up to the last
	// 64) made while telemetry was enabled; zero when there were none.
	P50 time.Duration
}

// StepModes reports every step's execution mode, in execution order. Dense
// steps decide at compile time; graph kernels report the fan-out their
// backend lowered them with. Call it between runs, not during one.
func (cp *CompiledProgram) StepModes() []StepMode {
	modes := make([]StepMode, len(cp.steps))
	for i := range cp.steps {
		st := &cp.steps[i]
		m := StepMode{Op: st.op.String(), Name: st.name, Workers: 1}
		m.P50 = st.site.P50()
		switch {
		case st.split != nil:
			m.Workers = st.split.workers
		case st.kern != nil:
			c := st.kern.Counters()
			if c.Fanout > 1 {
				m.Workers = c.Fanout
			}
			m.Walk, m.Epilogue, m.InteriorStages = c.Walk, c.Epilogue, c.InteriorStages
		}
		modes[i] = m
	}
	return modes
}
