package core

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// The partition-aware lowering path of the parallel backend. A graph's
// vertices are split once (per graph, cached) into K cache-sized shards by
// shard.Partition, and a sharded reduction is the flat kernel dealt another
// way: the items are the K shards, dealt one per claim, so the pool's
// participants take whole shards off the job's cursor and a shard's owned
// rows stay with one goroutine (worker-to-shard affinity).
//
// A shard is a list of owned rows. shardChunk runs the kernel's one row body
// (parallelKernel.rows) over each run of consecutive owned ids, writing the
// global output rows directly — the flat kernel's walk in the partition's
// order instead of id order, a row-resident region's stages included. The
// verified plan (shard-no-alias) gives every row exactly one owning shard, so
// no two chunks write one row, there is nothing to merge, and the result is
// the flat kernel's to the bit, independent of shard count, worker count or
// claim order. A row run needs no plan at all: it is the flat kernel's.

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

// ShardedLowering is implemented by lowered kernels that can execute over a
// shard plan. The program compiler uses it to report partition shape in its
// stats.
type ShardedLowering interface {
	// ShardCount reports how many shards the kernel executes over (1 = flat).
	ShardCount() int
	// ShardEdgeCut reports the plan's cross-shard edge fraction.
	ShardEdgeCut() float64
}

// AsShardedLowering finds the sharded lowering that k is or wraps: a kernel
// executing over more than one shard. Kernels that run another lowered kernel
// (a composed region, the resilient ladder) expose it through an Unwrap
// method, so sharding stays visible behind any stack of them without each
// re-exporting this interface.
func AsShardedLowering(k CompiledKernel) (ShardedLowering, bool) {
	for k != nil {
		if sl, ok := k.(ShardedLowering); ok {
			return sl, sl.ShardCount() > 1
		}
		w, ok := k.(interface{ Unwrap() CompiledKernel })
		if !ok {
			break
		}
		k = w.Unwrap()
	}
	return nil, false
}

// bindShards turns a reducing kernel into its sharded form: shardChunk over
// the plan's shards, one shard per claim. Only called with a plan of at least
// 2 shards, before the region's slab sets are sized by the fan-out.
func (k *parallelKernel) bindShards(sp *shard.Plan) {
	k.sp = sp
	k.fanout = min(k.fanout, sp.K)
	k.setJob(k.shardChunk, sp.K, 1)
	// Span labels are precomputed so per-shard tracing allocates nothing at
	// Run time.
	k.labels = make([]string, sp.K)
	for s := range k.labels {
		k.labels[s] = fmt.Sprintf("%s shard %d/%d", opLabel(k.p), s, sp.K)
	}
}

// ShardCount implements ShardedLowering.
func (k *parallelKernel) ShardCount() int {
	if k.sp == nil {
		return 1
	}
	return k.sp.K
}

// ShardEdgeCut implements ShardedLowering.
func (k *parallelKernel) ShardEdgeCut() float64 {
	if k.sp == nil {
		return 0
	}
	return k.sp.EdgeCut
}

// shardChunk is the chunk body of a sharded reducing kernel: shards [lo, hi).
func (k *parallelKernel) shardChunk(lo, hi int) {
	ss := k.claim()
	defer ss.release()
	for s := lo; s < hi; s++ {
		chunkFaults()
		k.execShard(ss, s)
	}
}

// execShard runs the row body over each run of shard s's owned rows, under a
// per-shard span when telemetry is armed.
func (k *parallelKernel) execShard(ss *slabSet, s int) {
	if telemetry.Enabled() {
		sp := telemetry.StartSpan(k.b.Name(), "shard", k.labels[s])
		defer sp.End()
	}
	owned := k.sp.Shards[s].Owned
	for i := 0; i < len(owned); {
		lo, hi, next := NextRun(owned, i)
		k.rows(ss, lo, hi)
		i = next
	}
}
