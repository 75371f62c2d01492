// Package shard partitions a graph's vertices into K cache-sized shards for
// partition-aware kernel execution. A shard is a list of owned rows: the
// shard that owns a vertex produces that vertex's output row, reducing the
// row's in-edge list over the graph's own CSR, so every output row has
// exactly one producer and sharded kernels are conflict-free by construction.
//
// The partitioner is locality-aware, not just size-aware: it scores block
// partitions of three candidate orderings — the graph's own id order,
// reorder.BFS and reorder.DegreeSort — with reorder.EdgeCut and keeps the
// cheapest, so community structure recoverable by a reordering becomes low
// communication volume. Every plan is verified by analysis.VerifyShardPlan
// before it is returned; a wrong plan is unrepresentable as a successful
// Partition. The paired faultinject.CorruptShardPlan point corrupts only
// the verified view (never the plan itself) to prove the rule fires.
//
// No command, daemon option or backend name selects sharding: the one
// lowering over a plan is core.NewShardedParallelBackend, which only the
// benchmark's shard arm and ugrapher-lint -ir's verification matrix build.
package shard

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/reorder"
)

// MaxShards bounds the shard count a plan may request; beyond it per-shard
// bookkeeping dwarfs any locality gain.
const MaxShards = 4096

// Shard is one partition element: the output rows it produces.
type Shard struct {
	// Owned lists the global vertex ids this shard owns, ascending. The
	// shard produces exactly the output rows of these vertices.
	Owned []int32
}

// Plan is a verified partition of one graph into K shards.
type Plan struct {
	// NumVertices is the vertex count of the partitioned graph.
	NumVertices int
	// K is the shard count (== len(Shards); trailing shards may be empty
	// when K exceeds the vertex count).
	K int
	// Shards are the partition elements, indexed by shard id.
	Shards []Shard
	// Owner maps each global vertex id to its owning shard.
	Owner []int32
	// EdgeCut is the fraction of edges whose endpoints live in different
	// shards (reorder.EdgeCut of the chosen partition).
	EdgeCut float64
	// Seed names the ordering that won the partition-seed selection
	// ("identity", "bfs" or "degree").
	Seed string
}

// seedCandidate is one ordering the partitioner scores.
type seedCandidate struct {
	name string
	perm func(g *graph.Graph) []int32
}

var seedCandidates = []seedCandidate{
	{"identity", func(g *graph.Graph) []int32 { return reorder.Identity(g.NumVertices()) }},
	{"bfs", reorder.BFS},
	{"degree", reorder.DegreeSort},
}

// Partition splits g into k shards. k == 1 yields the trivial single-shard
// plan; k may exceed the vertex count, leaving trailing shards empty. The returned plan
// has passed analysis.VerifyShardPlan — a plan violating shard-no-alias is
// returned as an error, never as a value.
func Partition(g *graph.Graph, k int) (*Plan, error) {
	if k < 1 || k > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d out of range [1, %d]", k, MaxShards)
	}
	numV := g.NumVertices()

	// Seed selection: block-partition each candidate ordering and keep the
	// one that cuts the fewest edges. Ties keep the earlier (cheaper)
	// candidate; a single shard cuts nothing by construction.
	p := &Plan{NumVertices: numV, K: k, Shards: make([]Shard, k), Seed: seedCandidates[0].name}
	if k == 1 || numV == 0 {
		p.Owner = make([]int32, numV)
	} else {
		bestCut := math.Inf(1)
		for _, cand := range seedCandidates {
			o := reorder.BlockOwners(cand.perm(g), k)
			if cut := reorder.EdgeCut(g, o); cut < bestCut {
				bestCut, p.Owner, p.Seed = cut, o, cand.name
			}
		}
		p.EdgeCut = bestCut
	}
	// Owned lists, ascending by construction of the walk.
	for v, s := range p.Owner {
		p.Shards[s].Owned = append(p.Shards[s].Owned, int32(v))
	}
	if err := verifyPlan(p); err != nil {
		return nil, err
	}
	return p, nil
}

// verifyPlan runs the mandatory shard-plan verification. The facts are a
// view of the plan; the CorruptShardPlan fault mutates only that view (fresh
// slices replace the corrupted parts), so an armed corruption proves the rule
// fires without ever producing a broken plan object.
func verifyPlan(p *Plan) error {
	facts := analysis.ShardFacts{
		NumVertices: p.NumVertices,
		Owner:       p.Owner,
		Shards:      make([]analysis.ShardView, len(p.Shards)),
	}
	for i := range p.Shards {
		facts.Shards[i].Owned = p.Shards[i].Owned
	}
	if faultinject.Fire(faultinject.CorruptShardPlan) {
		corruptFacts(&facts, faultinject.SpecOf(faultinject.CorruptShardPlan).Seed)
	}
	if err := analysis.VerifyShardPlan(facts); err != nil {
		return fmt.Errorf("shard: plan for %d shards rejected: %w", p.K, err)
	}
	return nil
}

// corruptFacts applies one deliberate inconsistency to the verified view:
// seed 0 makes a second shard own a vertex the first already owns, any other
// seed drops a vertex from its owner's list so nobody owns it. Every
// mutation builds a fresh slice — the plan the facts alias is never touched.
func corruptFacts(f *analysis.ShardFacts, seed uint64) {
	first := -1
	for i := range f.Shards {
		owned := f.Shards[i].Owned
		if len(owned) == 0 {
			continue
		}
		if seed != 0 {
			f.Shards[i].Owned = append([]int32(nil), owned[1:]...)
			return
		}
		if first < 0 {
			first = i
			continue
		}
		f.Shards[i].Owned = append([]int32{f.Shards[first].Owned[0]}, owned...)
		return
	}
}
