package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/workpool"
)

// The partition-aware lowering path of the parallel backend. A graph is
// split once (per graph, cached) into K cache-sized shards by
// shard.Partition; aggregation kernels then execute shard-at-a-time with
// worker-to-shard affinity: the pool's participants claim whole shards off
// the job's cursor, so each shard's sub-CSR, id map and partial buffer stay
// with one goroutine for the duration of the shard.
//
// Because shards own the incoming edges of their owned vertices, every
// output row has exactly one producing shard and the two execution shapes
// are conflict-free by construction. Both reduce a row with the flat
// kernel's span kernel (span.go) over the row's in-edge list in the global
// CSR — the shard's sub-CSR lists the same edges in the same order under
// local ids (the shard-* verifier rules pin that), so resolving them back
// through L2G per edge would only re-derive what the global CSR already
// holds:
//
//   - vertex-parallel strategies write owned global rows directly
//     (owner-per-row discipline);
//   - edge-parallel strategies run the two-level reduction: level 1 reduces
//     each owned row into the shard's private partial slice (compact local
//     indexing, |owned| x feat — the whole level-1 working set of a shard
//     is partial + halo rows), level 2 folds the partial into the owned
//     global rows with mergeRow, plus the zero-degree and mean fixups.
//     Shard partials are disjoint slices of one scratch block, carved at
//     Lower time so the steady state allocates nothing; determinism follows
//     from row ownership plus the CSR-ordered level-1 walk, independent of
//     worker count or claim order.

// shardPlanCache memoises verified shard plans per (graph, requested count):
// a compiled model program lowers several kernels against the same graph,
// and partitioning is the expensive part. Bounded defensively; the bound is
// far above what a process compiling a handful of graphs reaches.
var (
	shardPlanMu    sync.Mutex
	shardPlanCache = map[shardPlanKey]*shard.Plan{}
)

type shardPlanKey struct {
	g *graph.Graph
	k int
}

const shardPlanCacheMax = 64

// shardPlanFor returns the memoised plan for (g, k), partitioning and
// verifying on first use. Errors are not cached: a corrupted-plan rejection
// (fault injection) must not poison later lowers.
func shardPlanFor(g *graph.Graph, k int) (*shard.Plan, error) {
	shardPlanMu.Lock()
	defer shardPlanMu.Unlock()
	key := shardPlanKey{g: g, k: k}
	if p, ok := shardPlanCache[key]; ok {
		return p, nil
	}
	p, err := shard.Partition(g, k)
	if err != nil {
		return nil, err
	}
	if len(shardPlanCache) >= shardPlanCacheMax {
		shardPlanCache = map[shardPlanKey]*shard.Plan{}
	}
	shardPlanCache[key] = p
	return p, nil
}

// ShardedLowering is implemented by lowered kernels that execute over a
// shard plan. The program compiler uses it to report partition shape in its
// stats and to rebind the per-shard scratch of all of a program's kernels
// onto one shared block (steps run sequentially, so sharing is safe and
// caps the program's shard-scratch footprint at the largest kernel's).
type ShardedLowering interface {
	// ShardCount reports how many shards the kernel executes over.
	ShardCount() int
	// ShardEdgeCut reports the plan's cross-shard edge fraction.
	ShardEdgeCut() float64
	// ShardScratchFloats reports the float32 count of the kernel's partial
	// scratch (0 for vertex-parallel lowerings, which need none).
	ShardScratchFloats() int
	// BindShardScratch points the kernel's partials at buf, which must hold
	// at least ShardScratchFloats elements. The kernel re-initialises the
	// scratch every Run, so rebinding never leaks state between kernels.
	BindShardScratch(buf []float32)
}

// AsShardedLowering finds the sharded lowering that k is or wraps. Kernels
// that run another lowered kernel (a composed region, the resilient ladder)
// expose it through an Unwrap method, so sharding stays visible behind any
// stack of them without each re-exporting this interface.
func AsShardedLowering(k CompiledKernel) (ShardedLowering, bool) {
	for k != nil {
		if sl, ok := k.(ShardedLowering); ok {
			return sl, true
		}
		w, ok := k.(interface{ Unwrap() CompiledKernel })
		if !ok {
			break
		}
		k = w.Unwrap()
	}
	return nil, false
}

// lowerSharded builds the partition-aware kernel for an aggregation plan
// already lowered to red. Only called with CKind == Dst_V and a plan of at
// least 2 shards.
func (b *ParallelBackend) lowerSharded(p *Plan, g *graph.Graph, o Operands, sp *shard.Plan, red rowReducer, site *telemetry.KernelSite) CompiledKernel {
	k := &shardedKernel{
		b: b, p: p, g: g, o: o,
		feat:      o.C.T.Cols,
		red:       red,
		sp:        sp,
		vertexPar: p.Schedule.Strategy.VertexParallel(),
		site:      site,
	}
	k.fanout = min(b.fanout(g, k.feat), sp.K)
	if !k.vertexPar {
		// Per-shard partial slices, carved from one block: shard s owns
		// scratch[offsets[s] : offsets[s] + |owned_s| * feat]. The offsets
		// sum to |V| * feat.
		k.offsets = make([]int, sp.K)
		total := 0
		for i := range sp.Shards {
			k.offsets[i] = total
			total += sp.Shards[i].NumOwned() * k.feat
		}
		k.scratch = make([]float32, total)
	}
	k.job = workpool.NewJob(k.shardRange)
	// Span labels are precomputed so per-shard tracing allocates nothing at
	// Run time.
	k.labels = make([]string, sp.K)
	for s := range k.labels {
		k.labels[s] = fmt.Sprintf("%s shard %d/%d", opLabel(p), s, sp.K)
	}
	return k
}

// shardedKernel is a Plan lowered onto a shard plan. Not safe for
// concurrent Run calls (shared scratch), like every host kernel.
type shardedKernel struct {
	b    *ParallelBackend
	p    *Plan
	g    *graph.Graph
	o    Operands
	feat int
	red  rowReducer
	sp   *shard.Plan

	vertexPar bool
	// fanout is the goroutine count shards are dealt to (1 = inline).
	fanout int

	// scratch holds the per-shard partials of the two-level reduction;
	// offsets locates shard s's slice. Owned by the kernel unless the
	// program compiler rebound it onto a program-wide block.
	scratch []float32
	offsets []int

	// labels are the per-shard span names, precomputed at Lower.
	labels []string

	// job is the pool job over the shard indices, bound at Lower.
	job *workpool.Job
	// epilogue, when bound, is applied to a shard's owned rows by the
	// goroutine that just produced them (BindEpilogue).
	epilogue RowEpilogue

	runs      int64
	shardsRun atomic.Int64

	site *telemetry.KernelSite
}

// Plan implements CompiledKernel.
func (k *shardedKernel) Plan() *Plan { return k.p }

// Counters implements CompiledKernel.
func (k *shardedKernel) Counters() Counters {
	return Counters{
		Runs:     k.runs,
		Edges:    k.runs * int64(k.g.NumEdges()),
		Shards:   k.shardsRun.Load(),
		Workers:  k.b.workers,
		Fanout:   k.fanout,
		Walk:     WalkRows,
		Epilogue: epilogueMode(k.epilogue),
	}
}

// BindEpilogue implements EpilogueBinder: a shard owns its output rows, so
// the epilogue runs over them as the shard finishes.
func (k *shardedKernel) BindEpilogue(f RowEpilogue) bool {
	k.epilogue = f
	return true
}

// ShardCount implements ShardedLowering.
func (k *shardedKernel) ShardCount() int { return k.sp.K }

// ShardEdgeCut implements ShardedLowering.
func (k *shardedKernel) ShardEdgeCut() float64 { return k.sp.EdgeCut }

// ShardScratchFloats implements ShardedLowering.
func (k *shardedKernel) ShardScratchFloats() int { return len(k.scratch) }

// BindShardScratch implements ShardedLowering.
func (k *shardedKernel) BindShardScratch(buf []float32) {
	if n := len(k.scratch); n > 0 && len(buf) >= n {
		k.scratch = buf[:n]
	}
}

// Run implements CompiledKernel.
func (k *shardedKernel) Run() error { return k.RunCtx(context.Background()) }

// RunCtx implements CompiledKernel, with the same recovery and telemetry
// discipline as the flat parallel kernel: the End defer is registered first
// so it observes the panic already converted into err.
func (k *shardedKernel) RunCtx(ctx context.Context) (err error) {
	tstart := k.site.Begin()
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
	// Whole shards are dealt to the pool's participants one claim at a time
	// (worker-to-shard affinity); cancellation is checked at shard claims.
	if err := workpool.Run(ctx, k.job, k.sp.K, 1, k.fanout); err != nil {
		return kernelErr(k.p, k.b.Name(), err)
	}
	if err := finishRun(k.p, k.o.C.T); err != nil {
		return err
	}
	k.runs++
	return nil
}

// shardRange is the pool chunk body: execute shards [lo, hi).
func (k *shardedKernel) shardRange(lo, hi int) {
	for s := lo; s < hi; s++ {
		chunkFaults()
		k.execShard(int32(s))
		k.shardsRun.Add(1)
	}
}

// execShard runs one shard end to end, under a per-shard span when
// telemetry is armed.
func (k *shardedKernel) execShard(s int32) {
	if telemetry.Enabled() {
		sp := telemetry.StartSpan(k.b.Name(), "shard", k.labels[s])
		defer sp.End()
	}
	sh := &k.sp.Shards[s]
	if k.vertexPar {
		k.vertexShard(sh)
	} else {
		k.edgeShard(sh)
	}
}

// vertexShard mirrors the thread-vertex / warp-vertex kernels over one
// shard: reduce each owned vertex's in-edge list straight into its global
// row. One owner per row, so no partials.
func (k *shardedKernel) vertexShard(sh *shard.Shard) {
	out := k.o.C.T
	for _, v := range sh.Owned {
		srcs, eids := k.g.InEdges(v)
		k.red.reduce(out.Row(int(v)), srcs, eids, v)
	}
	k.ownedEpilogue(sh)
}

// edgeShard is the two-level reduction for the edge-parallel strategies.
// Level 1 reduces each owned row into the shard's private partial slice
// using compact local row indexing; level 2 folds the partial into the owned
// global rows (mergeRow) and applies the zero-degree and mean fixups.
// Destination ownership makes level 2 exclusive per row, so the fold order
// across shards cannot matter — the canonical MergeOrder the verifier pins
// is trivially respected.
func (k *shardedKernel) edgeShard(sh *shard.Shard) {
	out := k.o.C.T
	feat := k.feat
	gop := k.p.Op.GatherOp
	nOwned := len(sh.Owned)
	buf := k.scratch[k.offsets[sh.ID] : k.offsets[sh.ID]+nOwned*feat]
	for i, v := range sh.Owned {
		srcs, eids := k.g.InEdges(v)
		if len(eids) > 0 {
			k.red.span(&k.red, buf[i*feat:i*feat+feat], srcs, eids, v)
		}
	}
	for i, v := range sh.Owned {
		row := out.Row(int(v))
		deg := k.g.InDegree(v)
		if deg == 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		for j := range row {
			row[j] = k.red.identity
		}
		mergeRow(gop, row, buf[i*feat:i*feat+feat])
		if k.red.mean {
			inv := 1 / float32(deg)
			for j := range row {
				row[j] *= inv
			}
		}
	}
	k.ownedEpilogue(sh)
}

// ownedEpilogue applies the bound epilogue to the shard's owned rows, one
// call per run of consecutive vertex ids.
func (k *shardedKernel) ownedEpilogue(sh *shard.Shard) {
	if k.epilogue == nil {
		return
	}
	owned := sh.Owned
	for i := 0; i < len(owned); {
		j := i + 1
		for j < len(owned) && owned[j] == owned[j-1]+1 {
			j++
		}
		k.epilogue(int(owned[i]), int(owned[j-1])+1)
		i = j
	}
}
