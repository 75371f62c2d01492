// Package graph provides the sparse graph structures that uGrapher's
// unified operator abstraction traverses.
//
// Graphs are stored in compressed sparse row form twice: once over incoming
// edges (CSC when viewing the adjacency matrix with rows = destinations) and
// once over outgoing edges (CSR). Every edge carries a stable edge id so edge
// embedding tensors can be addressed no matter which traversal order a
// schedule picks. This mirrors the paper's Fig. 4/5 interface:
// dst.get_inedges(), edge.src_v, edge.dst_v.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Edge is a directed edge (Src -> Dst) with a stable identifier.
//
// ID indexes edge embedding tensors: the feature row of this edge is row ID
// regardless of traversal order.
type Edge struct {
	ID  int32
	Src int32
	Dst int32
}

// Graph is an immutable directed graph in dual-CSR form.
//
// The zero value is an empty graph. Use FromEdges or a Builder to construct
// one; the constructors validate and canonicalise the input.
type Graph struct {
	numVertices int32
	numEdges    int32

	// Incoming adjacency: for destination v, the incoming edges are
	// inEdges[inPtr[v]:inPtr[v+1]]; inSrc holds the source vertex of each,
	// aligned with inEdges which holds the edge id.
	inPtr   []int32
	inSrc   []int32
	inEdges []int32

	// Outgoing adjacency, same layout keyed by source vertex.
	outPtr   []int32
	outDst   []int32
	outEdges []int32

	// edgeSrc/edgeDst are indexed by edge id (COO view).
	edgeSrc []int32
	edgeDst []int32

	// fingerprint hashes the vertex count and the COO arrays, which
	// determine every other field (Fingerprint).
	fingerprint uint64
}

// ErrVertexOutOfRange reports an edge endpoint outside [0, NumVertices).
var ErrVertexOutOfRange = errors.New("graph: vertex out of range")

// FromEdges builds a graph with numVertices vertices from the given edge
// list. Edge ids are assigned by position in the slice. Self-loops and
// parallel edges are allowed (real GNN datasets contain both).
func FromEdges(numVertices int, edges []Edge) (*Graph, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numVertices)
	}
	n := int32(numVertices)
	g := &Graph{
		numVertices: n,
		numEdges:    int32(len(edges)),
		edgeSrc:     make([]int32, len(edges)),
		edgeDst:     make([]int32, len(edges)),
	}
	for i, e := range edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return nil, fmt.Errorf("%w: edge %d (%d->%d) with %d vertices",
				ErrVertexOutOfRange, i, e.Src, e.Dst, numVertices)
		}
		g.edgeSrc[i] = e.Src
		g.edgeDst[i] = e.Dst
	}
	g.buildIndexes()
	return g, nil
}

// FromCOO builds a graph from parallel src/dst slices; edge i is src[i]->dst[i].
func FromCOO(numVertices int, src, dst []int32) (*Graph, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch %d vs %d", len(src), len(dst))
	}
	edges := make([]Edge, len(src))
	for i := range src {
		edges[i] = Edge{ID: int32(i), Src: src[i], Dst: dst[i]}
	}
	return FromEdges(numVertices, edges)
}

func (g *Graph) buildIndexes() {
	n := g.numVertices
	m := g.numEdges
	g.fingerprint = fingerprintOf(n, g.edgeSrc, g.edgeDst)

	g.inPtr = make([]int32, n+1)
	g.outPtr = make([]int32, n+1)
	for i := int32(0); i < m; i++ {
		g.inPtr[g.edgeDst[i]+1]++
		g.outPtr[g.edgeSrc[i]+1]++
	}
	for v := int32(0); v < n; v++ {
		g.inPtr[v+1] += g.inPtr[v]
		g.outPtr[v+1] += g.outPtr[v]
	}

	g.inSrc = make([]int32, m)
	g.inEdges = make([]int32, m)
	g.outDst = make([]int32, m)
	g.outEdges = make([]int32, m)
	inCursor := make([]int32, n)
	outCursor := make([]int32, n)
	for i := int32(0); i < m; i++ {
		d := g.edgeDst[i]
		s := g.edgeSrc[i]
		ip := g.inPtr[d] + inCursor[d]
		g.inSrc[ip] = s
		g.inEdges[ip] = i
		inCursor[d]++
		op := g.outPtr[s] + outCursor[s]
		g.outDst[op] = d
		g.outEdges[op] = i
		outCursor[s]++
	}
}

// fingerprintOf hashes a graph's defining content: its vertex count and
// edge list in id order. A multiply-xorshift step per word, so a graph of
// millions of edges hashes in milliseconds at construction.
func fingerprintOf(n int32, src, dst []int32) uint64 {
	h := uint64(0x243f6a8885a308d3) ^ uint64(uint32(n))
	mix := func(v int32) {
		h ^= uint64(uint32(v))
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	for i := range src {
		mix(src[i])
		mix(dst[i])
	}
	mix(int32(len(src)))
	return h
}

// Fingerprint identifies the graph by content: two graphs with the same
// vertex count and the same edge list in id order have the same
// fingerprint, and different graphs almost surely differ. Callers that
// memoise per graph key by it instead of by *Graph, so they retain no graph.
func (g *Graph) Fingerprint() uint64 { return g.fingerprint }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return int(g.numVertices) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return int(g.numEdges) }

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v int32) int32 { return g.inPtr[v+1] - g.inPtr[v] }

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v int32) int32 { return g.outPtr[v+1] - g.outPtr[v] }

// InEdges returns, for destination v, the aligned (sources, edge ids) of its
// incoming edges. The returned slices alias internal storage; callers must
// not modify them.
func (g *Graph) InEdges(v int32) (srcs, edgeIDs []int32) {
	lo, hi := g.inPtr[v], g.inPtr[v+1]
	return g.inSrc[lo:hi], g.inEdges[lo:hi]
}

// OutEdges returns, for source v, the aligned (destinations, edge ids) of its
// outgoing edges. The returned slices alias internal storage.
func (g *Graph) OutEdges(v int32) (dsts, edgeIDs []int32) {
	lo, hi := g.outPtr[v], g.outPtr[v+1]
	return g.outDst[lo:hi], g.outEdges[lo:hi]
}

// EdgeEndpoints returns the (src, dst) of edge id e.
func (g *Graph) EdgeEndpoints(e int32) (src, dst int32) {
	return g.edgeSrc[e], g.edgeDst[e]
}

// InPtr exposes the incoming-CSR row pointer (len |V|+1). Read-only.
func (g *Graph) InPtr() []int32 { return g.inPtr }

// InSrcs exposes the incoming-CSR column (source vertex per slot). Read-only.
func (g *Graph) InSrcs() []int32 { return g.inSrc }

// InEdgeIDs exposes the incoming-CSR edge-id column, aligned with InSrcs.
func (g *Graph) InEdgeIDs() []int32 { return g.inEdges }

// EdgeSrcs exposes the COO source array indexed by edge id. Read-only.
func (g *Graph) EdgeSrcs() []int32 { return g.edgeSrc }

// EdgeDsts exposes the COO destination array indexed by edge id. Read-only.
func (g *Graph) EdgeDsts() []int32 { return g.edgeDst }

// Stats summarises the structural properties that drive schedule choice and
// that the paper reports in Table 3.
type Stats struct {
	NumVertices int
	NumEdges    int
	// MeanInDegree is |E|/|V|.
	MeanInDegree float64
	// StdInDegree is the paper's "std of nnz": the standard deviation of
	// per-row non-zero counts of the adjacency matrix (in-degrees).
	StdInDegree float64
	MaxInDegree int32
	// GiniInDegree in [0,1) measures skew; 0 is perfectly balanced.
	GiniInDegree float64
}

// ComputeStats derives structural statistics of g.
func (g *Graph) ComputeStats() Stats {
	n := int(g.numVertices)
	s := Stats{NumVertices: n, NumEdges: int(g.numEdges)}
	if n == 0 {
		return s
	}
	degs := make([]float64, n)
	var sum float64
	var maxDeg int32
	for v := int32(0); v < g.numVertices; v++ {
		d := g.InDegree(v)
		degs[v] = float64(d)
		sum += float64(d)
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := sum / float64(n)
	var varSum float64
	for _, d := range degs {
		varSum += (d - mean) * (d - mean)
	}
	s.MeanInDegree = mean
	s.StdInDegree = math.Sqrt(varSum / float64(n))
	s.MaxInDegree = maxDeg
	s.GiniInDegree = gini(degs)
	return s
}

// gini computes the Gini coefficient of non-negative values.
func gini(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	var cum, weighted float64
	for i, x := range sorted {
		cum += x
		weighted += float64(i+1) * x
	}
	if cum == 0 {
		return 0
	}
	n := float64(len(xs))
	return (2*weighted - (n+1)*cum) / (n * cum)
}

// Validate checks internal consistency of the dual-CSR indexes.
//
//lint:allow unread -- the graph, datasets and sample tests check every graph they build with it
func (g *Graph) Validate() error {
	n, m := g.numVertices, g.numEdges
	if int32(len(g.inPtr)) != n+1 || int32(len(g.outPtr)) != n+1 {
		return errors.New("graph: pointer array length mismatch")
	}
	if g.inPtr[n] != m || g.outPtr[n] != m {
		return errors.New("graph: pointer arrays do not cover all edges")
	}
	// Monotonicity must hold before the per-vertex walks below: InEdges
	// slices inSrc[inPtr[v]:inPtr[v+1]] and would panic on a decreasing or
	// out-of-range pointer pair.
	if g.inPtr[0] != 0 || g.outPtr[0] != 0 {
		return errors.New("graph: pointer arrays do not start at 0")
	}
	for v := int32(0); v < n; v++ {
		if g.inPtr[v+1] < g.inPtr[v] {
			return fmt.Errorf("graph: in-CSR pointer decreases at vertex %d", v)
		}
		if g.outPtr[v+1] < g.outPtr[v] {
			return fmt.Errorf("graph: out-CSR pointer decreases at vertex %d", v)
		}
	}
	if int32(len(g.edgeSrc)) != m || int32(len(g.edgeDst)) != m {
		return errors.New("graph: COO array length mismatch")
	}
	for e := int32(0); e < m; e++ {
		if s, d := g.edgeSrc[e], g.edgeDst[e]; s < 0 || s >= n || d < 0 || d >= n {
			return fmt.Errorf("graph: edge %d endpoint out of range (%d->%d)", e, s, d)
		}
	}
	seen := make([]bool, m)
	for v := int32(0); v < n; v++ {
		srcs, ids := g.InEdges(v)
		for i, e := range ids {
			if e < 0 || e >= m {
				return fmt.Errorf("graph: bad edge id %d at vertex %d", e, v)
			}
			if seen[e] {
				return fmt.Errorf("graph: edge id %d appears twice in in-CSR", e)
			}
			seen[e] = true
			if g.edgeDst[e] != v {
				return fmt.Errorf("graph: edge %d filed under dst %d but COO says %d", e, v, g.edgeDst[e])
			}
			if g.edgeSrc[e] != srcs[i] {
				return fmt.Errorf("graph: edge %d in-CSR src %d != COO src %d", e, srcs[i], g.edgeSrc[e])
			}
		}
	}
	for _, ok := range seen {
		if !ok {
			return errors.New("graph: in-CSR misses an edge")
		}
	}
	seen = make([]bool, m)
	for v := int32(0); v < n; v++ {
		dsts, ids := g.OutEdges(v)
		for i, e := range ids {
			if seen[e] {
				return fmt.Errorf("graph: edge id %d appears twice in out-CSR", e)
			}
			seen[e] = true
			if g.edgeSrc[e] != v || g.edgeDst[e] != dsts[i] {
				return fmt.Errorf("graph: out-CSR entry for edge %d inconsistent", e)
			}
		}
	}
	for _, ok := range seen {
		if !ok {
			return errors.New("graph: out-CSR misses an edge")
		}
	}
	return nil
}
