package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Builder accumulates edges and produces an immutable Graph. It is the
// mutable companion to Graph for code that discovers edges incrementally
// (generators, file loaders).
type Builder struct {
	numVertices int
	src, dst    []int32
}

// NewBuilder returns a Builder for a graph with numVertices vertices.
func NewBuilder(numVertices int) *Builder {
	return &Builder{numVertices: numVertices}
}

// AddEdge appends a directed edge src->dst; its edge id is the insertion index.
func (b *Builder) AddEdge(src, dst int32) {
	b.src = append(b.src, src)
	b.dst = append(b.dst, dst)
}

// Build validates and freezes the accumulated edges into a Graph.
func (b *Builder) Build() (*Graph, error) {
	return FromCOO(b.numVertices, b.src, b.dst)
}

// WriteEdgeList writes the graph as "numVertices numEdges" followed by one
// "src dst" pair per line, a minimal interchange format used by the CLIs.
//
//lint:allow unread -- cmd/ugrapher's tests write the edge-list files its -graph flag loads
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for e := int32(0); e < g.numEdges; e++ {
		if _, err := fmt.Fprintf(bw, "%d %d\n", g.edgeSrc[e], g.edgeDst[e]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Limits bounds what ReadEdgeList will accept from an untrusted edge-list
// file. A malformed or hostile header/body must not be able to drive huge
// allocations or build a graph that later panics mid-kernel.
type Limits struct {
	// MaxVertices caps the declared vertex count (0 = DefaultLimits').
	MaxVertices int
	// MaxEdges caps the number of edge lines (0 = DefaultLimits').
	MaxEdges int
}

// DefaultLimits are the bounds ReadEdgeList applies when the caller passes
// none: generous for real datasets (the largest in datasets/ is ~1.6M
// edges) while keeping a hostile header from allocating tens of GiB.
var DefaultLimits = Limits{
	MaxVertices: 1 << 28, // 268M vertices
	MaxEdges:    1 << 30, // 1B edges
}

// ReadEdgeList parses the format written by WriteEdgeList under
// DefaultLimits. Lines starting with '#' or '%' are comments.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return ReadEdgeListLimits(r, Limits{})
}

// ReadEdgeListLimits is ReadEdgeList with caller-chosen bounds (zero fields
// fall back to DefaultLimits). All parse errors carry the 1-based line
// number; negative ids, counts beyond the limits, and values overflowing
// int32 are rejected here rather than surfacing later as kernel panics.
func ReadEdgeListLimits(r io.Reader, lim Limits) (*Graph, error) {
	if lim.MaxVertices <= 0 {
		lim.MaxVertices = DefaultLimits.MaxVertices
	}
	if lim.MaxEdges <= 0 {
		lim.MaxEdges = DefaultLimits.MaxEdges
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var header bool
	var n int
	var src, dst []int32
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		a, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		b, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if !header {
			header = true
			if a < 0 || b < 0 {
				return nil, fmt.Errorf("graph: line %d: negative count in header (%d %d)", lineNo, a, b)
			}
			if a > lim.MaxVertices {
				return nil, fmt.Errorf("graph: line %d: %d vertices exceeds limit %d", lineNo, a, lim.MaxVertices)
			}
			if b > lim.MaxEdges {
				return nil, fmt.Errorf("graph: line %d: %d edges exceeds limit %d", lineNo, b, lim.MaxEdges)
			}
			n = a
			// Preallocation trusts the declared edge count only up to a modest
			// bound; a header lying upward costs re-growth, not memory.
			pre := b
			if pre > 1<<20 {
				pre = 1 << 20
			}
			src = make([]int32, 0, pre)
			dst = make([]int32, 0, pre)
			continue
		}
		if a < 0 || b < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id (%d %d)", lineNo, a, b)
		}
		if a >= n || b >= n {
			return nil, fmt.Errorf("graph: line %d: vertex id out of range (%d %d, have %d vertices)", lineNo, a, b, n)
		}
		if len(src) >= lim.MaxEdges {
			return nil, fmt.Errorf("graph: line %d: more than %d edges", lineNo, lim.MaxEdges)
		}
		src = append(src, int32(a))
		dst = append(dst, int32(b))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("graph: empty edge list")
	}
	return FromCOO(n, src, dst)
}

// Relabel returns a new graph where vertex v of g becomes perm[v]. Edge ids
// are preserved (edge i of the result connects perm[src_i]->perm[dst_i]),
// which keeps edge embedding tensors valid across renumbering — the property
// Fig. 19's orthogonality experiment relies on.
func (g *Graph) Relabel(perm []int32) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d != %d vertices", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: perm is not a permutation (value %d)", p)
		}
		seen[p] = true
	}
	src := make([]int32, g.numEdges)
	dst := make([]int32, g.numEdges)
	for e := int32(0); e < g.numEdges; e++ {
		src[e] = perm[g.edgeSrc[e]]
		dst[e] = perm[g.edgeDst[e]]
	}
	return FromCOO(n, src, dst)
}

// Reverse returns the transposed graph: edge i of the result connects
// dst_i -> src_i, with edge ids preserved. GNN training needs it — the
// backward pass of an aggregation scatters gradients along reversed edges,
// so a transposed traversal reuses the same uGrapher operators.
func (g *Graph) Reverse() *Graph {
	src := make([]int32, g.numEdges)
	dst := make([]int32, g.numEdges)
	for e := int32(0); e < g.numEdges; e++ {
		src[e] = g.edgeDst[e]
		dst[e] = g.edgeSrc[e]
	}
	rg, err := FromCOO(g.NumVertices(), src, dst)
	if err != nil {
		// invariant: endpoints come from an already-validated graph, so
		// FromCOO cannot reject them.
		panic(err)
	}
	return rg
}
