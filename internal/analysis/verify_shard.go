package analysis

import "fmt"

// The shard-plan rule: a partition-granularity check that runs inside
// shard.Partition for every plan before any kernel is lowered onto it. A
// shard is a list of owned rows, and a sharded kernel reduces each owned row
// over the global CSR — so the one thing a plan can get wrong is which shard
// produces which row. The check re-derives that from the owned lists alone
// instead of trusting the partitioner's owner map.

// ShardFacts is the verifier's view of one shard plan, carried in primitives
// so analysis needs no graph or shard types. Slices may alias the plan's
// storage; the verifier only reads them.
type ShardFacts struct {
	// NumVertices is the vertex count of the partitioned graph.
	NumVertices int
	// Owner maps each global vertex id to its owning shard.
	Owner []int32
	// Shards are the per-shard views, indexed by shard id.
	Shards []ShardView
}

// ShardView is the verifier's view of one shard.
type ShardView struct {
	// Owned lists the global vertex ids this shard owns, ascending.
	Owned []int32
}

// VerifyShardPlan checks one shard plan against RuleShardNoAlias: the Owned
// lists partition the vertex set — every vertex in exactly one shard,
// consistent with Owner. Two shards owning one vertex would write the same
// output row; a vertex owned by nobody would leave its row stale. Returns a
// *VerifyError or nil.
func VerifyShardPlan(f ShardFacts) error {
	shardsVerified.Add(1)
	var diags []Diagnostic
	bad := func(node, msg string) {
		diags = append(diags, Diagnostic{
			Rule: RuleShardNoAlias, Node: node, Msg: msg,
			Hint: "each output row needs exactly one owning shard",
		})
	}
	if len(f.Owner) != f.NumVertices {
		bad("plan", fmt.Sprintf("owner map covers %d of %d vertices", len(f.Owner), f.NumVertices))
		return Finish(diags)
	}
	seen := make([]int32, f.NumVertices) // owning shard + 1, 0 = unowned
	for s := range f.Shards {
		node := fmt.Sprintf("shard %d", s)
		for _, v := range f.Shards[s].Owned {
			if v < 0 || int(v) >= f.NumVertices {
				bad(node, fmt.Sprintf("owned vertex %d out of range", v))
				continue
			}
			if prev := seen[v]; prev != 0 {
				bad(node, fmt.Sprintf("vertex %d owned by shard %d and shard %d", v, prev-1, s))
				continue
			}
			seen[v] = int32(s) + 1
			if f.Owner[v] != int32(s) {
				bad(node, fmt.Sprintf("vertex %d in shard %d's owned list but owner map says %d", v, s, f.Owner[v]))
			}
		}
	}
	for v, s := range seen {
		if s == 0 {
			bad("plan", fmt.Sprintf("vertex %d owned by no shard", v))
		}
	}
	return Finish(diags)
}
