package core

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/shard"
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

// bindShards turns a reducing kernel into its sharded form: shardChunk over
// the plan's shards, one shard per claim. Only called with a plan of at least
// 2 shards, before the region's slab sets are sized by the fan-out.
func (k *parallelKernel) bindShards(sp *shard.Plan) {
	k.sp = sp
	k.fanout = min(k.fanout, sp.K)
	k.setJob(k.shardChunk, sp.K, 1)
}

// shardChunk is the chunk body of a sharded reducing kernel: shards [lo, hi),
// the row body over each run of a shard's owned rows.
func (k *parallelKernel) shardChunk(lo, hi int) {
	ss := k.claim()
	defer ss.release()
	for s := lo; s < hi; s++ {
		chunkFaults()
		owned := k.sp.Shards[s].Owned
		for i := 0; i < len(owned); {
			first, end, next := NextRun(owned, i)
			k.rows(ss, first, end)
			i = next
		}
	}
}
