package graph

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustGraph(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := mustGraph(t, 0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestNoEdges(t *testing.T) {
	g := mustGraph(t, 5, nil)
	for v := int32(0); v < 5; v++ {
		if g.InDegree(v) != 0 || g.OutDegree(v) != 0 {
			t.Fatalf("vertex %d has nonzero degree", v)
		}
	}
}

func TestSmallGraphAdjacency(t *testing.T) {
	// 0->1, 0->2, 1->2, 2->0, 2->2 (self loop)
	g := mustGraph(t, 3, []Edge{
		{0, 0, 1}, {1, 0, 2}, {2, 1, 2}, {3, 2, 0}, {4, 2, 2},
	})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.InDegree(2); got != 3 {
		t.Errorf("InDegree(2) = %d, want 3", got)
	}
	if got := g.OutDegree(2); got != 2 {
		t.Errorf("OutDegree(2) = %d, want 2", got)
	}
	srcs, ids := g.InEdges(2)
	if len(srcs) != 3 {
		t.Fatalf("InEdges(2) has %d entries, want 3", len(srcs))
	}
	for i, e := range ids {
		s, d := g.EdgeEndpoints(e)
		if d != 2 || s != srcs[i] {
			t.Errorf("in-edge %d endpoints (%d,%d) inconsistent with srcs[%d]=%d", e, s, d, i, srcs[i])
		}
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 0, 2}}); err == nil {
		t.Fatal("expected error for dst out of range")
	}
	if _, err := FromEdges(2, []Edge{{0, -1, 1}}); err == nil {
		t.Fatal("expected error for negative src")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Fatal("expected error for negative vertex count")
	}
}

func TestFromCOOLengthMismatch(t *testing.T) {
	if _, err := FromCOO(3, []int32{0}, []int32{1, 2}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestParallelEdgesAllowed(t *testing.T) {
	g := mustGraph(t, 2, []Edge{{0, 0, 1}, {1, 0, 1}, {2, 0, 1}})
	if g.InDegree(1) != 3 {
		t.Fatalf("InDegree(1) = %d, want 3 for parallel edges", g.InDegree(1))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	src := make([]int32, m)
	dst := make([]int32, m)
	for i := 0; i < m; i++ {
		src[i] = int32(rng.Intn(n))
		dst[i] = int32(rng.Intn(n))
	}
	g, err := FromCOO(n, src, dst)
	if err != nil {
		panic(err)
	}
	return g
}

// Property: dual-CSR indexes of random graphs always validate, and degree
// sums equal the edge count.
func TestRandomGraphInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(200)
		m := rng.Intn(1000)
		g := randomGraph(rng, n, m)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var inSum, outSum int32
		for v := int32(0); v < int32(n); v++ {
			inSum += g.InDegree(v)
			outSum += g.OutDegree(v)
		}
		if int(inSum) != m || int(outSum) != m {
			t.Fatalf("trial %d: degree sums %d/%d != %d edges", trial, inSum, outSum, m)
		}
	}
}

// Property (testing/quick): for arbitrary edge lists over a small vertex
// set, every edge id appears exactly once in each CSR and endpoints match.
func TestQuickCSRRoundTrip(t *testing.T) {
	f := func(pairs []uint16) bool {
		const n = 64
		src := make([]int32, len(pairs))
		dst := make([]int32, len(pairs))
		for i, p := range pairs {
			src[i] = int32(p % n)
			dst[i] = int32((p / n) % n)
		}
		g, err := FromCOO(n, src, dst)
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeStats(t *testing.T) {
	// Star graph: all edges point at vertex 0.
	b := NewBuilder(5)
	for v := int32(1); v < 5; v++ {
		b.AddEdge(v, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := g.ComputeStats()
	if s.NumVertices != 5 || s.NumEdges != 4 {
		t.Fatalf("stats counts wrong: %+v", s)
	}
	if s.MaxInDegree != 4 {
		t.Errorf("MaxInDegree = %d, want 4", s.MaxInDegree)
	}
	// In-degrees are [4,0,0,0,0]: mean 0.8, variance (4-.8)^2+4*(.8)^2 over 5.
	wantStd := math.Sqrt((3.2*3.2 + 4*0.64) / 5)
	if math.Abs(s.StdInDegree-wantStd) > 1e-9 {
		t.Errorf("StdInDegree = %v, want %v", s.StdInDegree, wantStd)
	}
	if s.GiniInDegree < 0.7 {
		t.Errorf("GiniInDegree = %v, want high skew for star graph", s.GiniInDegree)
	}

	// Regular ring: perfectly balanced.
	b2 := NewBuilder(10)
	for v := int32(0); v < 10; v++ {
		b2.AddEdge(v, (v+1)%10)
	}
	g2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	s2 := g2.ComputeStats()
	if s2.StdInDegree != 0 {
		t.Errorf("ring StdInDegree = %v, want 0", s2.StdInDegree)
	}
	if s2.GiniInDegree != 0 {
		t.Errorf("ring GiniInDegree = %v, want 0", s2.GiniInDegree)
	}
}

func TestGiniEdgeCases(t *testing.T) {
	if g := gini(nil); g != 0 {
		t.Errorf("gini(nil) = %v", g)
	}
	if g := gini([]float64{0, 0, 0}); g != 0 {
		t.Errorf("gini(zeros) = %v", g)
	}
	if g := gini([]float64{5}); g != 0 {
		t.Errorf("gini(single) = %v", g)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 50, 300)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size mismatch")
	}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		s1, d1 := g.EdgeEndpoints(e)
		s2, d2 := g2.EdgeEndpoints(e)
		if s1 != s2 || d1 != d2 {
			t.Fatalf("edge %d mismatch: (%d,%d) vs (%d,%d)", e, s1, d1, s2, d2)
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",
		"3\n",
		"3 1\n0 1 2\n",
		"3 1\nx y\n",
	}
	for i, c := range cases {
		if _, err := ReadEdgeList(bytes.NewBufferString(c)); err == nil {
			t.Errorf("case %d: expected error for %q", i, c)
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# header comment\n2 1\n% another\n0 1\n"
	g, err := ReadEdgeList(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 30, 120)
	perm := rng.Perm(30)
	p := make([]int32, 30)
	for i, v := range perm {
		p[i] = int32(v)
	}
	g2, err := g.Relabel(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	// Edge ids preserved: edge e connects the images of the original endpoints.
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		s, d := g.EdgeEndpoints(e)
		s2, d2 := g2.EdgeEndpoints(e)
		if s2 != p[s] || d2 != p[d] {
			t.Fatalf("edge %d not relabelled correctly", e)
		}
	}
	// Degree multiset preserved.
	var sum1, sum2 int32
	for v := int32(0); v < 30; v++ {
		sum1 += g.InDegree(v) * g.InDegree(v)
		sum2 += g2.InDegree(v) * g2.InDegree(v)
	}
	if sum1 != sum2 {
		t.Fatal("degree multiset changed under relabel")
	}
}

func TestRelabelRejectsBadPerm(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 0, 1}})
	if _, err := g.Relabel([]int32{0, 1}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := g.Relabel([]int32{0, 0, 1}); err == nil {
		t.Fatal("expected duplicate error")
	}
	if _, err := g.Relabel([]int32{0, 1, 3}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestBuilderUndirected(t *testing.T) {
	// An undirected edge is the two directed ones; each end gets one of each.
	b := NewBuilder(4)
	for _, e := range [][2]int32{{0, 1}, {1, 0}, {2, 3}, {3, 2}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	for v := int32(0); v < 4; v++ {
		if g.InDegree(v) != 1 || g.OutDegree(v) != 1 {
			t.Fatalf("vertex %d: in %d out %d, want 1 and 1", v, g.InDegree(v), g.OutDegree(v))
		}
	}
}

func TestReverse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 40, 200)
	r := g.Reverse()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		s, d := g.EdgeEndpoints(e)
		rs, rd := r.EdgeEndpoints(e)
		if rs != d || rd != s {
			t.Fatalf("edge %d not reversed", e)
		}
	}
	// Degrees swap roles.
	for v := int32(0); v < 40; v++ {
		if g.InDegree(v) != r.OutDegree(v) || g.OutDegree(v) != r.InDegree(v) {
			t.Fatalf("vertex %d degrees not swapped", v)
		}
	}
	// Double reverse is the identity (same COO).
	rr := r.Reverse()
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		s, d := g.EdgeEndpoints(e)
		s2, d2 := rr.EdgeEndpoints(e)
		if s != s2 || d != d2 {
			t.Fatal("double reverse changed the graph")
		}
	}
}
