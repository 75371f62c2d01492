package core

import (
	"context"
	"runtime"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/workpool"
)

// The parallel host backend: a multi-core executor for the machine uGrapher
// itself runs on. A plan's GPU strategy describes a V100 loop nest; the host
// honours only what pays on the host (DESIGN.md §5). Every reducing kernel
// walks destination rows, one owner per row, whatever strategy the plan
// names: a row's whole in-edge list is reduced by one span-kernel call
// (span.go), so no two workers ever write one output element, there is
// nothing to merge, and the result does not depend on the worker count.
// Edge-output kernels split the edge range freely. Rows or edges are dealt in
// chunks to the process-wide worker pool (internal/workpool), the calling
// goroutine claiming chunks alongside up to workers-1 helpers, and a fused
// region's output epilogue runs inside the chunk that produced the rows.
//
// Hardening (DESIGN.md §7): the pool checks context cancellation at
// chunk-claim granularity and recovers chunk panics, which surface here as
// typed *KernelError values instead of killing the process; the chunk
// bodies carry the fault-injection hooks the test harness uses to prove
// both properties.

// ParallelBackend executes plans on a host worker pool. The zero worker
// count resolves to runtime.GOMAXPROCS(0). A shard count
// other than 1 routes aggregation kernels through the partition-aware
// lowering path (backend_sharded.go).
type ParallelBackend struct {
	workers int
	shards  int
}

// NewParallelBackend builds an unsharded backend with the given worker-pool
// size (0 = runtime.GOMAXPROCS(0)).
func NewParallelBackend(workers int) *ParallelBackend {
	return NewShardedParallelBackend(workers, 1)
}

// NewShardedParallelBackend builds a backend with an explicit shard count:
// 0 auto-sizes shards from the cache budget per graph, 1 disables sharding,
// K > 1 partitions every graph into K shards at Lower time. Counts outside
// [0, shard.MaxShards] clamp to the unsharded default.
func NewShardedParallelBackend(workers, shards int) *ParallelBackend {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > MaxWorkers {
		workers = MaxWorkers
	}
	if shards < 0 || shards > shard.MaxShards {
		shards = 1
	}
	return &ParallelBackend{workers: workers, shards: shards}
}

// Name implements ExecBackend.
func (b *ParallelBackend) Name() string { return "parallel" }

// Workers reports the worker-pool size.
func (b *ParallelBackend) Workers() int { return b.workers }

// Lower implements ExecBackend: validate once and resolve the operator's
// span kernel (or edge writer) for the bound operands.
func (b *ParallelBackend) Lower(p *Plan, g *graph.Graph, o Operands) (ck CompiledKernel, err error) {
	sp := lowerSpan(b.Name(), p)
	defer func() { endLower(sp, err) }()
	if err := faultinject.ErrIf(faultinject.LowerFail); err != nil {
		return nil, err
	}
	if o.Interior != nil {
		err = o.Interior.validate(p, g, o)
	} else {
		err = p.validateOperands(g.NumVertices(), g.NumEdges(), o)
	}
	if err != nil {
		return nil, err
	}
	k := b.newKernel(p, g, o)
	// The chunk body and its pool job are bound once: a closure or method
	// value taken per Run would allocate each call and break the
	// zero-steady-state contract.
	if p.Op.CKind == tensor.EdgeK {
		// Message creation stays on the flat path even when sharding is on:
		// per-edge output rows never conflict, so sharding buys it nothing.
		if k.msg, err = lowerEdgeWriter(p.Op, g, o); err != nil {
			return nil, err
		}
		k.setJob(k.edgeChunk, g.NumEdges(), chunkSize(g.NumEdges(), k.fanout))
		return k, nil
	}
	if err := k.lowerRows(); err != nil {
		return nil, err
	}
	return k, nil
}

// lowerRows binds a reducing kernel's row body — its reducer, or the slab
// sets of the row-resident region its operands carry — and the job that deals
// the rows: whole shards under a shard plan of more than one shard (a plan
// that resolves to a single shard, auto on a small graph, stays flat),
// chunkSize row ranges otherwise.
func (k *parallelKernel) lowerRows() (err error) {
	if k.b.shards != 1 {
		plan, err := shardPlanFor(k.g, k.b.shards)
		if err != nil {
			return err
		}
		if plan.K > 1 {
			k.bindShards(plan)
		}
	}
	if k.o.Interior != nil {
		k.region, err = lowerRowRegion(k, k.o.Interior)
	} else {
		k.red, err = lowerRowReducer(k.p.Op, k.o, k.o.C.T.Cols)
	}
	if err != nil {
		return err
	}
	if k.sp == nil {
		numV := k.g.NumVertices()
		k.setJob(k.rowChunk, numV, chunkSize(numV, k.fanout))
	}
	return nil
}

// newKernel is the kernel of p over operands whose output tensor is known to
// be there, before its chunk body is bound.
func (b *ParallelBackend) newKernel(p *Plan, g *graph.Graph, o Operands) *parallelKernel {
	k := &parallelKernel{b: b, p: p, g: g, o: o, fanout: b.fanout(g, o.C.T.Cols), site: kernelSite(p, b.Name(), g)}
	k.site.Walk = k.walk()
	return k
}

type parallelKernel struct {
	b *ParallelBackend
	p *Plan
	g *graph.Graph
	o Operands
	// red is the lowered reduction of a Dst_V kernel, msg the lowered edge
	// writer of an Edge-output kernel; exactly one is set.
	red rowReducer
	msg edgeWriter
	// region is the row-resident form of a Dst_V kernel whose Edge operand is
	// computed in the chunk (region_rows.go), nil otherwise.
	region *rowRegion
	// sp is the shard plan of a sharded Dst_V kernel (backend_sharded.go),
	// nil on the flat path; labels are its per-shard span names.
	sp     *shard.Plan
	labels []string
	// fanout is the goroutine count chunks are dealt to (1 = inline).
	fanout int
	// main is the kernel's one pool job — rowChunk over destination rows,
	// edgeChunk over edges or shardChunk over shards — bound at lowering time
	// with the item count and chunk size it is dealt in.
	main         *workpool.Job
	items, chunk int
	// epilogue, when bound, is applied to every chunk's output rows by the
	// chunk that produced them (BindEpilogue).
	epilogue RowEpilogue

	// site is the telemetry handle, resolved at Lower time.
	site *telemetry.KernelSite
}

// chunkFaults is the fault-injection site at the head of every kernel chunk
// body (each hook is one atomic load while disarmed).
func chunkFaults() {
	faultinject.MaybeSleep(faultinject.SlowChunk)
	faultinject.MaybePanic(faultinject.KernelPanic)
	faultinject.MaybePanic(faultinject.KernelPanicLoad)
}

// kernelErr converts a pool run's outcome into the execution layer's error
// taxonomy: a recovered chunk panic becomes a *KernelError for plan p.
func kernelErr(p *Plan, backend string, err error) error {
	if pe, ok := err.(*workpool.PanicError); ok {
		return newKernelError(p, backend, pe.Value, pe.Stack)
	}
	return err
}

// setJob binds the kernel's chunk body and how its items are dealt.
func (k *parallelKernel) setJob(body func(lo, hi int), items, chunk int) {
	k.main = workpool.NewJob(body)
	k.items, k.chunk = items, chunk
}

// Plan implements CompiledKernel.
func (k *parallelKernel) Plan() *Plan { return k.p }

// Counters implements CompiledKernel.
func (k *parallelKernel) Counters() Counters {
	c := Counters{
		Workers:  k.b.workers,
		Fanout:   k.fanout,
		Walk:     k.walk(),
		Epilogue: epilogueMode(k.epilogue),
	}
	if k.region != nil {
		c.InteriorStages, c.SlabFloats = k.region.stages, k.region.slabFloats
	}
	return c
}

// walk names the traversal the kernel runs (Counters.Walk).
func (k *parallelKernel) walk() string {
	if k.p.Op.CKind == tensor.EdgeK {
		return WalkEdgeChunks
	}
	return WalkRows
}

// BindEpilogue implements EpilogueBinder: every chunk body owns the rows it
// writes, so the epilogue runs at the end of each chunk — for a reducing
// kernel, of each call of the row body.
func (k *parallelKernel) BindEpilogue(f RowEpilogue) bool {
	k.epilogue = f
	return true
}

// smallWork is the (edges x features) volume below which fanning out to the
// pool costs more than it buys; such kernels run on the calling goroutine.
const smallWork = 1 << 15

// fanout is how many goroutines a kernel of the given output width over g
// deals its chunks to: the backend's workers, or 1 below smallWork.
func (b *ParallelBackend) fanout(g *graph.Graph, feat int) int {
	if int64(g.NumEdges())*int64(feat) < smallWork {
		return 1
	}
	return b.workers
}

// Run implements CompiledKernel.
func (k *parallelKernel) Run() error { return k.RunCtx(context.Background()) }

// RunCtx implements CompiledKernel. A panic in a chunk body, on the caller
// or on a pool helper, comes back from the pool as a *KernelError; any other
// panic on the calling goroutine (lowered-loop bugs outside a chunk) is
// recovered here into the same type.
func (k *parallelKernel) RunCtx(ctx context.Context) (err error) {
	tstart := k.site.Begin()
	// Registered before the recover defer so it runs after it (LIFO) and
	// observes the panic already converted into err.
	defer func() {
		oc, detail := outcomeOf(err)
		k.site.EndCtx(ctx, tstart, oc, detail)
	}()
	defer func() {
		if r := recover(); r != nil {
			err = newKernelError(k.p, k.b.Name(), r, captureStack())
		}
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	// Each output row — an edge's or a destination vertex's — is written by
	// exactly one chunk, so rows split freely; cancellation is checked at
	// chunk claims.
	if err := workpool.Run(ctx, k.main, k.items, k.chunk, k.fanout); err != nil {
		return kernelErr(k.p, k.b.Name(), err)
	}
	return finishRun(k.p, k.o.C.T)
}

// chunkSize picks a dynamic-scheduling chunk: small enough to balance
// skewed degree distributions across workers, large enough to amortize the
// atomic fetch.
func chunkSize(items, workers int) int {
	c := items / (workers * 32)
	if c < 64 {
		c = 64
	}
	if c > 4096 {
		c = 4096
	}
	return c
}

// rowChunk is the chunk body of a reducing kernel's full pass: destination
// rows [lo, hi), one owner per row, register-style accumulation, no
// synchronization on the output — the host form of the thread-vertex /
// warp-vertex kernels, and what the edge-parallel strategies run as too.
func (k *parallelKernel) rowChunk(lo, hi int) {
	chunkFaults()
	ss := k.claim()
	defer ss.release()
	k.rows(ss, int32(lo), int32(hi))
}

// rows is the one row body of every reducing kernel — the full pass's chunks,
// a shard's runs of owned rows and a row run's runs all come here: rows
// [lo, hi) reduced by the reducer or, in a row-resident region, by the stages
// and head sub-run by sub-run, each part finished by the bound epilogue while
// its rows are in cache. No state passes from one row to the next, so a row
// holds the same bits whichever range it is computed in.
func (k *parallelKernel) rows(ss *slabSet, lo, hi int32) {
	for s := lo; s < hi; {
		e := hi
		if ss == nil {
			k.red.reduceRows(k.o.C.T, k.g, s, e)
		} else {
			// A sub-run [s, e) ends at the last row whose in-edges still fit
			// the slab, found by bisection (a row-by-row walk was ~1 % of a GAT
			// pass on PR); a row alone always fits: the slab is at least the
			// largest in-degree.
			inPtr, slab, last := k.g.InPtr(), int32(len(k.region.pos)), hi
			for e = s + 1; e < last; {
				if m := e + (last-e+1)/2; inPtr[m]-inPtr[s] <= slab {
					e = m
				} else {
					last = m - 1
				}
			}
			k.regionRows(ss, s, e)
		}
		if k.epilogue != nil {
			k.epilogue(int(s), int(e))
		}
		s = e
	}
}

// edgeChunk is the chunk body of an edge-output kernel: edges [lo, hi).
func (k *parallelKernel) edgeChunk(lo, hi int) {
	chunkFaults()
	k.msg.writeEdges(k.o.C.T.Data, k.o.C.T.Cols, 0, lo, hi)
	if k.epilogue != nil {
		k.epilogue(lo, hi)
	}
}
