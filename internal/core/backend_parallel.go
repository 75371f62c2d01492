package core

import (
	"context"
	"runtime"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/workpool"
)

// The parallel host backend: a multi-core executor that actually runs the
// four schedule strategies on the machine uGrapher itself runs on, instead
// of interpreting them sequentially. Work items (vertices for the
// vertex-parallel strategies, edges for the edge-parallel ones) are dealt
// in chunks to the process-wide worker pool (internal/workpool), the
// calling goroutine claiming chunks alongside up to workers-1 helpers;
// edge-parallel reductions avoid atomics by reducing into per-partition
// partial buffers that a parallel merge folds into the output. The inner
// loops come from kernels_host.go: one specialized fused loop per (edge_op
// x gather_op x operand-kind), so no per-element closure calls survive
// lowering.
//
// Hardening (DESIGN.md §7): the pool checks context cancellation at
// chunk-claim granularity and recovers chunk panics, which surface here as
// typed *KernelError values instead of killing the process; the chunk
// bodies carry the fault-injection hooks the test harness uses to prove
// both properties.

// ParallelBackend executes plans on a host worker pool. The zero worker
// count resolves to UGRAPHER_WORKERS or runtime.NumCPU(). A shard count
// other than 1 routes aggregation kernels through the partition-aware
// lowering path (backend_sharded.go).
type ParallelBackend struct {
	workers int
	shards  int
}

// NewParallelBackend builds a backend with the given worker-pool size
// (0 = UGRAPHER_WORKERS env var, else runtime.NumCPU()) and the
// process-default shard count (DefaultShards).
func NewParallelBackend(workers int) *ParallelBackend {
	return NewShardedParallelBackend(workers, DefaultShards())
}

// NewShardedParallelBackend builds a backend with an explicit shard count:
// 0 auto-sizes shards from the cache budget per graph, 1 disables sharding,
// K > 1 partitions every graph into K shards at Lower time. Counts outside
// [0, shard.MaxShards] clamp to the unsharded default.
func NewShardedParallelBackend(workers, shards int) *ParallelBackend {
	if workers <= 0 {
		workers = envWorkers()
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
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

// Shards reports the configured shard count (0 = auto, 1 = unsharded).
func (b *ParallelBackend) Shards() int { return b.shards }

// Lower implements ExecBackend: validate once, resolve operand row
// selectors, and pick the specialized inner loop.
func (b *ParallelBackend) Lower(p *Plan, g *graph.Graph, o Operands) (ck CompiledKernel, err error) {
	sp := lowerSpan(b.Name(), p)
	defer func() { endLower(sp, err) }()
	if err := faultinject.ErrIf(faultinject.LowerFail); err != nil {
		return nil, err
	}
	if err := p.validateOperands(g.NumVertices(), g.NumEdges(), o); err != nil {
		return nil, err
	}
	row, err := lowerRowKernel(p.Op.EdgeOp, p.Op.GatherOp)
	if err != nil {
		return nil, err
	}
	// Partition-aware path: aggregation kernels (Dst_V output) execute over
	// a verified shard plan when sharding is on. Message creation stays on
	// the flat path — per-edge output rows never conflict, so sharding buys
	// it nothing. A plan that resolves to a single shard (auto on a small
	// graph) falls through to the flat path too.
	if b.shards != 1 && p.Op.CKind == tensor.DstV {
		sp, err := shardPlanFor(g, b.shards)
		if err != nil {
			return nil, err
		}
		if sp.K > 1 {
			return b.lowerSharded(p, g, o, sp, row)
		}
	}
	k := &parallelKernel{
		b: b, p: p, g: g, o: o,
		feat: o.C.T.Cols,
		selA: lowerRowSel(o.A),
		selB: lowerRowSel(o.B),
		row:  row,
		mean: p.Op.GatherOp == ops.GatherMean,
		site: kernelSite(p, b.Name(), g),
	}
	k.fanout = b.fanout(g, k.feat)
	// Bind the chunk bodies and their pool jobs once: a closure or method
	// value taken per Run would allocate each call and break the
	// zero-steady-state contract.
	switch {
	case p.Op.CKind == tensor.EdgeK:
		k.main = workpool.NewJob(func(lo, hi int) { chunkFaults(); k.messageRange(int32(lo), int32(hi)) })
	case p.Schedule.Strategy.VertexParallel():
		k.main = workpool.NewJob(func(lo, hi int) { chunkFaults(); k.vertexRange(int32(lo), int32(hi)) })
	default:
		k.reduce = workpool.NewJob(k.reducePartitions)
		k.merge = workpool.NewJob(func(lo, hi int) { chunkFaults(); k.mergeRange(int32(lo), int32(hi)) })
		k.fixup = workpool.NewJob(func(lo, hi int) { chunkFaults(); k.fixupRange(int32(lo), int32(hi)) })
	}
	return k, nil
}

type parallelKernel struct {
	b    *ParallelBackend
	p    *Plan
	g    *graph.Graph
	o    Operands
	feat int
	selA rowSel
	selB rowSel
	row  fusedRow
	mean bool
	// fanout is the goroutine count chunks are dealt to (1 = inline).
	fanout int

	// main is the one pool job of message-creation and vertex-parallel
	// kernels; edge-parallel kernels instead run reduce (phase 1, one item
	// per edge partition) followed by merge (several partitions) or fixup
	// (one). Jobs and their bodies are bound at lowering time.
	main, reduce, merge, fixup *workpool.Job

	// partials are the per-partition private output buffers of edge-parallel
	// reductions, owned by the kernel and reused across Run calls so the
	// steady state allocates nothing (the kernel-reuse contract compiled
	// model programs rely on). Grown lazily on the first multi-worker run.
	partials [][]float32
	// bufs and per are the current run's phase-1 targets and edges per
	// partition; direct holds the output itself for the single-partition
	// shape, which reduces straight into it.
	bufs   [][]float32
	per    int
	direct [1][]float32

	runs   int64
	shards int64

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

// partialBufs returns `workers` buffers of n floats each, reusing previous
// runs' allocations.
func (k *parallelKernel) partialBufs(workers, n int) [][]float32 {
	if len(k.partials) < workers {
		k.partials = append(k.partials, make([][]float32, workers-len(k.partials))...)
	}
	bufs := k.partials[:workers]
	for w := range bufs {
		if cap(bufs[w]) < n {
			bufs[w] = make([]float32, n)
		} else {
			bufs[w] = bufs[w][:n]
		}
	}
	return bufs
}

// Plan implements CompiledKernel.
func (k *parallelKernel) Plan() *Plan { return k.p }

// Counters implements CompiledKernel.
func (k *parallelKernel) Counters() Counters {
	return Counters{
		Runs:    k.runs,
		Edges:   k.runs * int64(k.g.NumEdges()),
		Shards:  k.shards,
		Workers: k.b.workers,
		Fanout:  k.fanout,
	}
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
		k.site.EndCtx(ctx, tstart, oc, detail, nil)
	}()
	defer func() {
		if r := recover(); r != nil {
			err = newKernelError(k.p, k.b.Name(), r, captureStack())
		}
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	workers := k.fanout
	var runErr error
	switch {
	case k.p.Op.CKind == tensor.EdgeK:
		// Each edge's output row is written exactly once, so edges split
		// freely regardless of the strategy's traversal order.
		runErr = k.runChunks(ctx, k.main, k.g.NumEdges(), workers)
	case k.p.Schedule.Strategy.VertexParallel():
		runErr = k.runChunks(ctx, k.main, k.g.NumVertices(), workers)
	default:
		runErr = k.runEdgeParallel(ctx, workers)
	}
	if runErr != nil {
		return runErr
	}
	if err := finishRun(k.p, k.o.C.T); err != nil {
		return err
	}
	k.runs++
	return nil
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

// runChunks runs j's body over [0, items) in dynamically-claimed chunks on
// the shared pool, accumulating completed chunks into k.shards.
// Cancellation is checked at every chunk claim and a chunk panic comes back
// as a *KernelError; with one worker the pool runs the body on the caller
// (one direct call when no deadline is in play).
func (k *parallelKernel) runChunks(ctx context.Context, j *workpool.Job, items, workers int) error {
	err := workpool.Run(ctx, j, items, chunkSize(items, workers), workers)
	k.shards += j.Chunks()
	return kernelErr(k.p, k.b.Name(), err)
}

func (k *parallelKernel) messageRange(lo, hi int32) {
	out := k.o.C.T
	edgeSrc, edgeDst := k.g.EdgeSrcs(), k.g.EdgeDsts()
	for e := lo; e < hi; e++ {
		u, v := edgeSrc[e], edgeDst[e]
		k.row(out.Row(int(e)), k.selA(e, u, v), k.selB(e, u, v))
	}
}

// vertexRange mirrors the thread-vertex / warp-vertex kernels: one owner
// per output row, register-style accumulation, no synchronization on the
// output.
func (k *parallelKernel) vertexRange(lo, hi int32) {
	out := k.o.C.T
	identity := k.p.Op.GatherOp.Identity()
	for v := lo; v < hi; v++ {
		row := out.Row(int(v))
		srcs, eids := k.g.InEdges(v)
		if len(eids) == 0 {
			for j := range row {
				row[j] = 0 // zero-degree convention (DGL)
			}
			continue
		}
		for j := range row {
			row[j] = identity
		}
		for i, e := range eids {
			u := srcs[i]
			k.row(row, k.selA(e, u, v), k.selB(e, u, v))
		}
		if k.mean {
			inv := 1 / float32(len(eids))
			for j := range row {
				row[j] *= inv
			}
		}
	}
}

// edgeBlock is how many edges a phase-1 reduction processes between
// stop-flag / cancellation checks.
const edgeBlock = 8192

// runEdgeParallel mirrors the thread-edge / warp-edge kernels. Where the
// GPU kernels use atomics on the shared destination rows, the host backend
// gives each edge partition a private partial output buffer and folds the
// partials into the output with a parallel merge — same associative
// reduction, no contention. With one worker there is one partition, which
// reduces straight into the output and needs only the zero-degree/mean
// fixup pass.
func (k *parallelKernel) runEdgeParallel(ctx context.Context, workers int) error {
	numV, numE := k.g.NumVertices(), k.g.NumEdges()

	// Phase 1: every partition reduces a contiguous edge range into its own
	// buffer (identity-filled each run, so a cancelled or panicked run leaks
	// nothing into the next). Partitions are a prefix of the worker range:
	// with ceil division only trailing workers can come up empty, so exactly
	// nw buffers are live. The partition, not the claiming goroutine, picks
	// the buffer, so the merge order is fixed for a fixed worker count.
	nw := 1
	k.per = numE
	k.direct[0] = k.o.C.T.Data
	k.bufs = k.direct[:]
	if workers > 1 {
		k.per = (numE + workers - 1) / workers
		nw = (numE + k.per - 1) / k.per
		k.bufs = k.partialBufs(nw, numV*k.feat)
	}
	err := workpool.Run(ctx, k.reduce, nw, 1, workers)
	k.shards += k.reduce.Chunks()
	if err != nil {
		return kernelErr(k.p, k.b.Name(), err)
	}

	// Phase 2 over vertex ranges: fold each output row from the partials in
	// partition order, or fix up the directly reduced rows.
	if nw == 1 {
		return k.runChunks(ctx, k.fixup, numV, workers)
	}
	return k.runChunks(ctx, k.merge, numV, workers)
}

// reducePartitions is the phase-1 chunk body: partition w reduces its edge
// range into k.bufs[w], in blocks so a deadline or a sibling's panic stops
// the walk.
func (k *parallelKernel) reducePartitions(wlo, whi int) {
	identity := k.p.Op.GatherOp.Identity()
	edgeSrc, edgeDst := k.g.EdgeSrcs(), k.g.EdgeDsts()
	feat, numE := k.feat, k.g.NumEdges()
	for w := wlo; w < whi; w++ {
		buf := k.bufs[w]
		for i := range buf {
			buf[i] = identity
		}
		lo, hi := w*k.per, (w+1)*k.per
		if hi > numE {
			hi = numE
		}
		for blo := lo; blo < hi; blo += edgeBlock {
			if k.reduce.Stopped() {
				return
			}
			chunkFaults()
			bhi := blo + edgeBlock
			if bhi > hi {
				bhi = hi
			}
			for e := int32(blo); e < int32(bhi); e++ {
				u, v := edgeSrc[e], edgeDst[e]
				k.row(buf[int(v)*feat:int(v)*feat+feat], k.selA(e, u, v), k.selB(e, u, v))
			}
		}
	}
}

// mergeRange folds output rows [lo, hi) from the partition partials in
// partition order (deterministic for a fixed worker count), then applies
// the mean and zero-degree fixups.
func (k *parallelKernel) mergeRange(lo, hi int32) {
	out := k.o.C.T
	gop := k.p.Op.GatherOp
	identity := gop.Identity()
	feat := k.feat
	for v := lo; v < hi; v++ {
		row := out.Row(int(v))
		deg := k.g.InDegree(v)
		if deg == 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		for j := range row {
			row[j] = identity
		}
		for _, buf := range k.bufs {
			mergeRow(gop, row, buf[int(v)*feat:int(v)*feat+feat])
		}
		if k.mean {
			inv := 1 / float32(deg)
			for j := range row {
				row[j] *= inv
			}
		}
	}
}

// fixupRange applies the zero-degree and mean post-passes to output rows
// [lo, hi) of a directly reduced output.
func (k *parallelKernel) fixupRange(lo, hi int32) {
	out := k.o.C.T
	g := k.g
	for v := lo; v < hi; v++ {
		row := out.Row(int(v))
		deg := g.InDegree(v)
		if deg == 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		if k.mean {
			inv := 1 / float32(deg)
			for j := range row {
				row[j] *= inv
			}
		}
	}
}

// mergeRow folds one shard's partial row into the output row with the
// gather op's combiner.
func mergeRow(gop ops.GatherOp, dst, src []float32) {
	switch gop {
	case ops.GatherSum, ops.GatherMean:
		src = src[:len(dst)]
		for j := range dst {
			dst[j] += src[j]
		}
	case ops.GatherMax:
		maxCopy(dst, src)
	case ops.GatherMin:
		minCopy(dst, src)
	default:
		// Invariant, not input-reachable: runEdgeParallel is only entered
		// for reducing gathers (message creation routes to runMessageCreation
		// and plans are validated at Compile), so a non-reducing gather here
		// is a programming error in the backend itself.
		panic("core: merge of non-reducing gather")
	}
}
