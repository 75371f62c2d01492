package shard

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/reorder"
)

// clustered builds a community-structured graph with scrambled ids, the
// fixture family the reorder tests use, so the seed selection has real
// locality to recover.
func clustered(t *testing.T, n, clusterSize, edgesPer int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	scramble := rng.Perm(n)
	b := graph.NewBuilder(n)
	for c := 0; c < n/clusterSize; c++ {
		base := c * clusterSize
		for i := 0; i < clusterSize*edgesPer; i++ {
			u := base + rng.Intn(clusterSize)
			v := base + rng.Intn(clusterSize)
			b.AddEdge(int32(scramble[u]), int32(scramble[v]))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustPartition(t *testing.T, g *graph.Graph, k int) *Plan {
	t.Helper()
	p, err := Partition(g, k)
	if err != nil {
		t.Fatalf("Partition(%d): %v", k, err)
	}
	return p
}

// checkOwnership asserts the owned lists partition the vertex set: every
// vertex in exactly one shard's ascending list, agreeing with the owner map.
func checkOwnership(t *testing.T, p *Plan) {
	t.Helper()
	if p.K != len(p.Shards) || len(p.Owner) != p.NumVertices {
		t.Fatalf("plan shape: K=%d with %d shards, owner map %d of %d vertices", p.K, len(p.Shards), len(p.Owner), p.NumVertices)
	}
	seen := make([]bool, p.NumVertices)
	for si := range p.Shards {
		owned := p.Shards[si].Owned
		for i, v := range owned {
			if i > 0 && owned[i-1] >= v {
				t.Fatalf("shard %d: owned list not strictly ascending at %d", si, i)
			}
			if seen[v] {
				t.Fatalf("vertex %d owned twice", v)
			}
			seen[v] = true
			if p.Owner[v] != int32(si) {
				t.Fatalf("shard %d lists vertex %d, owner map says %d", si, v, p.Owner[v])
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("vertex %d owned by no shard", v)
		}
	}
}

func TestPartitionOwnership(t *testing.T) {
	g := clustered(t, 400, 40, 4)
	for _, k := range []int{2, 3, 7} {
		p := mustPartition(t, g, k)
		if p.K != k {
			t.Fatalf("k=%d: plan has %d shards", k, p.K)
		}
		checkOwnership(t, p)
	}
}

func TestPartitionIsolatedVertices(t *testing.T) {
	// Vertices 3..9 are isolated; they must still each have exactly one
	// owner.
	g, err := graph.FromCOO(10, []int32{0, 1, 2}, []int32{1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, g, 4)
	checkOwnership(t, p)
	owned := 0
	for i := range p.Shards {
		owned += len(p.Shards[i].Owned)
	}
	if owned != 10 {
		t.Fatalf("shards own %d of 10 vertices", owned)
	}
}

func TestPartitionMoreShardsThanVertices(t *testing.T) {
	g, err := graph.FromCOO(5, []int32{0, 1, 2, 3}, []int32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, g, 9)
	if p.K != 9 {
		t.Fatalf("plan has %d shards, want 9", p.K)
	}
	empty := 0
	for i := range p.Shards {
		if len(p.Shards[i].Owned) == 0 {
			empty++
		}
	}
	if empty != 4 {
		t.Fatalf("%d empty shards, want 4", empty)
	}
	checkOwnership(t, p)
}

func TestPartitionEmptyGraph(t *testing.T) {
	g, err := graph.FromCOO(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := mustPartition(t, g, 3)
	if p.K != 3 || p.EdgeCut != 0 {
		t.Fatalf("empty graph plan: K=%d cut=%v", p.K, p.EdgeCut)
	}
	checkOwnership(t, p)
}

func TestPartitionSingleShardTrivial(t *testing.T) {
	g := clustered(t, 100, 20, 3)
	p := mustPartition(t, g, 1)
	if p.K != 1 || p.EdgeCut != 0 {
		t.Fatalf("single shard must cut nothing: K=%d cut=%v", p.K, p.EdgeCut)
	}
	if len(p.Shards[0].Owned) != 100 {
		t.Fatal("single shard must own everything")
	}
}

func TestPartitionRejectsBadCounts(t *testing.T) {
	g := clustered(t, 40, 20, 2)
	for _, k := range []int{-1, 0, MaxShards + 1} {
		if _, err := Partition(g, k); err == nil {
			t.Errorf("Partition(%d) should fail", k)
		}
	}
}

// TestPartitionSeedBeatsScrambledBlocks pins the satellite property: the
// seed selection must not do worse than naive contiguous blocks of the
// scrambled id space, because the identity ordering is itself a candidate
// and BFS recovers the planted clusters.
func TestPartitionSeedBeatsScrambledBlocks(t *testing.T) {
	const n, clusterSize = 2000, 50
	g := clustered(t, n, clusterSize, 4)
	k := n / clusterSize
	p := mustPartition(t, g, k)
	identityCut := reorder.EdgeCut(g, reorder.BlockOwners(reorder.Identity(n), k))
	if p.EdgeCut > identityCut {
		t.Errorf("chosen seed %q cuts %.4f, worse than identity blocks %.4f", p.Seed, p.EdgeCut, identityCut)
	}
	if p.EdgeCut >= identityCut*0.5 {
		t.Errorf("clustered graph: expected the seed search to at least halve the cut (%q: %.4f vs %.4f)",
			p.Seed, p.EdgeCut, identityCut)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := clustered(t, 600, 30, 3)
	a := mustPartition(t, g, 5)
	b := mustPartition(t, g, 5)
	if a.Seed != b.Seed || a.EdgeCut != b.EdgeCut {
		t.Fatal("partition must be deterministic")
	}
	for si := range a.Shards {
		sa, sb := &a.Shards[si], &b.Shards[si]
		if len(sa.Owned) != len(sb.Owned) {
			t.Fatalf("shard %d differs between runs", si)
		}
		for i := range sa.Owned {
			if sa.Owned[i] != sb.Owned[i] {
				t.Fatalf("shard %d owned list differs", si)
			}
		}
	}
}

// TestCorruptShardPlanFiresEachRule is the paired fault-injection proof:
// each corruption variant — a vertex owned twice, a vertex owned by nobody —
// makes Partition reject the (corrupted view of the) plan with exactly
// shard-no-alias, and a clean re-partition of the same graph succeeds — the
// corruption lived only in the verified view.
func TestCorruptShardPlanFiresEachRule(t *testing.T) {
	defer faultinject.Reset()
	g := clustered(t, 300, 30, 3)
	variants := []struct {
		seed uint64
		msg  string
	}{
		{0, "owned by shard"},
		{1, "owned by no shard"},
	}
	for _, v := range variants {
		faultinject.Reset()
		faultinject.Arm(faultinject.CorruptShardPlan, faultinject.Spec{After: 1, Seed: v.seed})
		p, err := Partition(g, 4)
		if err == nil {
			t.Fatalf("seed %d: corrupted plan verified clean", v.seed)
		}
		if p != nil {
			t.Fatalf("seed %d: a rejected plan must not be returned", v.seed)
		}
		if faultinject.Fires(faultinject.CorruptShardPlan) == 0 {
			t.Fatalf("seed %d: corruption point never fired", v.seed)
		}
		var ve *analysis.VerifyError
		if !errors.As(err, &ve) || len(ve.Diags) != 1 || ve.Diags[0].Rule != analysis.RuleShardNoAlias ||
			!strings.Contains(ve.Diags[0].Msg, v.msg) {
			t.Fatalf("seed %d: want exactly one %s diagnostic saying %q, got %v", v.seed, analysis.RuleShardNoAlias, v.msg, err)
		}
		faultinject.Reset()
		if _, err := Partition(g, 4); err != nil {
			t.Fatalf("seed %d: clean re-partition failed: %v — corruption leaked into the plan", v.seed, err)
		}
	}
}

// TestVerifyShardPlanCleanFixtures proves the rules stay silent on
// well-formed plans of every shape the partitioner can produce.
func TestVerifyShardPlanCleanFixtures(t *testing.T) {
	graphs := []*graph.Graph{clustered(t, 200, 20, 3)}
	if g, err := graph.FromCOO(6, []int32{0, 0, 5}, []int32{0, 5, 0}); err == nil {
		graphs = append(graphs, g) // self-loop + cycle + isolated middle
	} else {
		t.Fatal(err)
	}
	for _, g := range graphs {
		for _, k := range []int{1, 2, 5, 8} {
			if _, err := Partition(g, k); err != nil {
				t.Errorf("clean partition (%dv, k=%d) rejected: %v", g.NumVertices(), k, err)
			}
		}
	}
}
