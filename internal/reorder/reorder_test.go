package reorder

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// Locality scores an ordering: the mean |src - dst| gap over edges,
// normalised by vertex count (lower is better): the oracle that a reorder
// actually tightened the graph.
func Locality(g *graph.Graph) float64 {
	m := g.NumEdges()
	if m == 0 || g.NumVertices() == 0 {
		return 0
	}
	var sum float64
	for e := int32(0); e < int32(m); e++ {
		s, d := g.EdgeEndpoints(e)
		gap := float64(s - d)
		if gap < 0 {
			gap = -gap
		}
		sum += gap
	}
	return sum / float64(m) / float64(g.NumVertices())
}

// clusteredButScrambled builds a graph with strong community structure whose
// vertex ids are randomly scrambled, so a locality reorder has something to
// recover.
func clusteredButScrambled(t *testing.T, n, clusterSize, edgesPer int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
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

func validPerm(t *testing.T, perm []int32, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("perm length %d != %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			t.Fatalf("not a permutation")
		}
		seen[p] = true
	}
}

func TestBFSIsPermutation(t *testing.T) {
	g := clusteredButScrambled(t, 1000, 50, 4)
	perm := BFS(g)
	validPerm(t, perm, 1000)
}

func TestBFSImprovesLocality(t *testing.T) {
	g := clusteredButScrambled(t, 2000, 50, 4)
	before := Locality(g)
	g2, err := Apply(g, BFS(g))
	if err != nil {
		t.Fatal(err)
	}
	after := Locality(g2)
	if after >= before*0.5 {
		t.Errorf("BFS reorder should halve the mean edge gap: before %.4f after %.4f", before, after)
	}
}

func TestBFSDeterministic(t *testing.T) {
	g := clusteredButScrambled(t, 500, 25, 3)
	p1 := BFS(g)
	p2 := BFS(g)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("BFS reorder must be deterministic")
		}
	}
}

func TestBFSCoversIsolatedVertices(t *testing.T) {
	// Vertices 3 and 4 are isolated.
	g, err := graph.FromCOO(5, []int32{0, 1}, []int32{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	validPerm(t, BFS(g), 5)
}

func TestDegreeSort(t *testing.T) {
	// Star at vertex 7 of 10: vertex 7 should get new id 0.
	b := graph.NewBuilder(10)
	for v := int32(0); v < 10; v++ {
		if v != 7 {
			b.AddEdge(v, 7)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	perm := DegreeSort(g)
	validPerm(t, perm, 10)
	if perm[7] != 0 {
		t.Errorf("hub should be renumbered to 0, got %d", perm[7])
	}
}

func TestEdgeCutRange(t *testing.T) {
	g := clusteredButScrambled(t, 1000, 50, 4)
	for _, k := range []int{1, 2, 7, 20, 1000, 2000} {
		cut := EdgeCut(g, BlockOwners(Identity(g.NumVertices()), k))
		if cut < 0 || cut > 1 {
			t.Errorf("k=%d: edge cut %v outside [0,1]", k, cut)
		}
	}
}

func TestEdgeCutSinglePartIsZero(t *testing.T) {
	g := clusteredButScrambled(t, 500, 25, 3)
	if cut := EdgeCut(g, BlockOwners(Identity(g.NumVertices()), 1)); cut != 0 {
		t.Errorf("one part must cut nothing, got %v", cut)
	}
}

// TestEdgeCutRecoversClusters is the property the partition-seed selection
// rests on: on a clustered-but-scrambled graph, block-partitioning the BFS
// ordering must cut far fewer edges than block-partitioning the scrambled
// identity ordering, because BFS re-groups each cluster into one block.
func TestEdgeCutRecoversClusters(t *testing.T) {
	const n, clusterSize = 2000, 50
	g := clusteredButScrambled(t, n, clusterSize, 4)
	k := n / clusterSize // one block per cluster
	scrambled := EdgeCut(g, BlockOwners(Identity(n), k))
	bfs := EdgeCut(g, BlockOwners(BFS(g), k))
	if bfs >= scrambled*0.5 {
		t.Errorf("BFS blocks should halve the edge cut: scrambled %.4f bfs %.4f", scrambled, bfs)
	}
}

func TestEdgeCutDeterministic(t *testing.T) {
	g := clusteredButScrambled(t, 800, 40, 3)
	owner := BlockOwners(BFS(g), 10)
	if EdgeCut(g, owner) != EdgeCut(g, owner) {
		t.Fatal("EdgeCut must be deterministic")
	}
}

func TestBlockOwnersShapes(t *testing.T) {
	perm := Identity(10)
	for _, tc := range []struct {
		k       int
		maxPart int32
	}{{1, 0}, {3, 2}, {10, 9}, {25, 9}} {
		owner := BlockOwners(perm, tc.k)
		if len(owner) != 10 {
			t.Fatalf("k=%d: owner length %d", tc.k, len(owner))
		}
		var hi int32
		for _, p := range owner {
			if p < 0 {
				t.Fatalf("k=%d: negative part %d", tc.k, p)
			}
			if p > hi {
				hi = p
			}
		}
		if hi != tc.maxPart {
			t.Errorf("k=%d: max part %d, want %d", tc.k, hi, tc.maxPart)
		}
	}
	if got := BlockOwners(nil, 4); len(got) != 0 {
		t.Errorf("empty perm should give empty owners")
	}
}

func TestLocalityEdgeCases(t *testing.T) {
	g, err := graph.FromCOO(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if Locality(g) != 0 {
		t.Error("empty graph locality should be 0")
	}
	ring := graph.NewBuilder(10)
	for v := int32(0); v < 10; v++ {
		ring.AddEdge(v, (v+1)%10)
	}
	rg, err := ring.Build()
	if err != nil {
		t.Fatal(err)
	}
	if l := Locality(rg); l <= 0 {
		t.Errorf("ring locality = %v, want > 0", l)
	}
}
