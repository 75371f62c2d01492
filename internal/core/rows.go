package core

import (
	"context"
	"math"

	"repro/internal/faultinject"
	"repro/internal/tensor"
)

// Row-subset runs (DESIGN.md §15): every reducing parallel kernel has one row
// body (parallelKernel.rows) over a range of destination rows with no state
// between rows. A full pass deals it chunkSize ranges, a sharded one each
// shard's runs of owned rows, and a row run the runs of the caller's rows:
// the same loops, same in-edge order, same mean divisor, same softmax row
// sum, hence the same bits a full Run writes there. A lowering says it can
// through RowRunner, in the style of EpilogueBinder; every reducing parallel
// kernel does, flat or sharded, plain or row-resident, the region and
// resilient wrappers pass the question on, and every other lowering
// (reference, unfused, edge-output) does not, which makes the program
// that holds it answer a row run with a full pass.

// RowRunner is implemented by lowered kernels that can produce a chosen set of
// their output rows.
type RowRunner interface {
	// RunsRows reports whether this lowering has the row-set form. A wrapper
	// implements the interface for what it wraps, so the method set alone does
	// not say.
	RunsRows() bool
	// RunRows computes output rows `rows` — ascending, distinct, in range —
	// into the bound output tensor, on the calling goroutine, leaving every
	// other row as it was. Each input is read only at the rows the operand
	// kinds name: a row's own for Dst_V, its in-edges' sources for Src_V, its
	// in-edges' ids for Edge. A bound epilogue is applied to the rows written;
	// the numeric guard scans those rows and no others. The run leaves a kernel
	// span in the caller's trace and nothing in Counters or the site's run,
	// edge and wall-time series, which describe full runs.
	RunRows(ctx context.Context, rows []int32) error
}

// AsRowRunner returns k's row-set form, false when the lowering has none.
func AsRowRunner(k CompiledKernel) (RowRunner, bool) {
	rr, ok := k.(RowRunner)
	if !ok || !rr.RunsRows() {
		return nil, false
	}
	return rr, true
}

// NextRun returns the maximal run of consecutive ids [lo, hi) that starts at
// rows[i], and the index the next run starts at. rows is ascending and
// distinct.
func NextRun(rows []int32, i int) (lo, hi int32, next int) {
	next = i + 1
	for next < len(rows) && rows[next] == rows[next-1]+1 {
		next++
	}
	return rows[i], rows[next-1] + 1, next
}

// RunsRows implements RowRunner: every reducing kernel does, an edge-output
// kernel (its rows are edges) does not.
func (k *parallelKernel) RunsRows() bool {
	return k.p.Op.CKind != tensor.EdgeK
}

// RunRows implements RowRunner with the row body of a full Run over each run
// of rows. A panic comes back as a *KernelError.
func (k *parallelKernel) RunRows(ctx context.Context, rows []int32) (err error) {
	tstart := k.site.Begin()
	// Registered before the recover defer so it runs after it (LIFO) and
	// observes the panic already converted into err.
	defer func() {
		oc, detail := outcomeOf(err)
		k.site.EndRowsCtx(ctx, tstart, oc, detail)
	}()
	defer func() {
		if r := recover(); r != nil {
			err = newKernelError(k.p, k.b.Name(), r, captureStack())
		}
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	chunkFaults()
	ss := k.claim()
	defer ss.release()
	for i := 0; i < len(rows); {
		lo, hi, next := NextRun(rows, i)
		k.rows(ss, lo, hi)
		i = next
	}
	return finishRows(k.p, k.o.C.T, rows)
}

// finishRows is finishRun for a row run: the NaN poke lands in the first row
// written, and the numeric guard scans the written rows only — the others hold
// whatever an earlier run left there.
func finishRows(p *Plan, out *tensor.Dense, rows []int32) error {
	if faultinject.Fire(faultinject.NaNPoke) && len(rows) > 0 && out.Cols > 0 {
		out.Row(int(rows[0]))[0] = float32(math.NaN())
	}
	if !checkNumericsOn.Load() {
		return nil
	}
	for _, r := range rows {
		if err := scanNumericsAt(opLabel(p), out.Row(int(r)), int(r)*out.Cols); err != nil {
			return err
		}
	}
	return nil
}

// RunsRows implements RowRunner for a composed region: with no staged
// prologue (a stage fills its whole buffer) and no epilogue stage after the
// kernel (it rewrites the whole output), the region is its inner kernel.
func (k *regionKernel) RunsRows() bool {
	if len(k.pre)+len(k.post) > 0 {
		return false
	}
	_, ok := AsRowRunner(k.inner)
	return ok
}

// RunRows implements RowRunner by the inner kernel, which recovers its own
// panics, under the region's own kernel span (the inner site is silenced).
func (k *regionKernel) RunRows(ctx context.Context, rows []int32) error {
	tstart := k.site.Begin()
	err := k.inner.(RowRunner).RunRows(ctx, rows)
	oc, detail := outcomeOf(err)
	k.site.EndRowsCtx(ctx, tstart, oc, detail)
	return err
}

// RunsRows implements RowRunner for the ladder: a primary that can, unless the
// "primary" already is the reference lowering.
func (k *resilientKernel) RunsRows() bool {
	if k.primaryIsFallback {
		return false
	}
	_, ok := AsRowRunner(k.primary)
	return ok
}

// RunRows implements RowRunner by the primary alone. A row run never ladders:
// its inputs hold the closure's rows and nothing else, which the reference rung,
// a whole-tensor kernel, cannot run on. A caller that wants the ladder after
// a *KernelError here runs the full pass.
func (k *resilientKernel) RunRows(ctx context.Context, rows []int32) error {
	return k.primary.(RowRunner).RunRows(ctx, rows)
}
