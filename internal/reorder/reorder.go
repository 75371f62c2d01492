// Package reorder implements locality-improving node renumbering, the
// stand-in for Rabbit Order in the paper's Fig. 19 orthogonality study
// (§7.4): renumbering clusters connected vertices into nearby ids, which
// improves cache behaviour for any schedule; uGrapher's scheduling gains
// compose with it rather than competing.
package reorder

import (
	"sort"

	"repro/internal/graph"
)

// BFS returns a permutation (old id -> new id) from breadth-first traversal
// of the undirected view of g, seeded repeatedly from the lowest-degree
// unvisited vertex (Cuthill-McKee style). Neighbouring vertices receive
// nearby ids, concentrating each block's working set.
func BFS(g *graph.Graph) []int32 {
	n := g.NumVertices()
	perm := make([]int32, n)
	visited := make([]bool, n)

	// Seeds in ascending total-degree order.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		da := g.InDegree(order[a]) + g.OutDegree(order[a])
		db := g.InDegree(order[b]) + g.OutDegree(order[b])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})

	next := int32(0)
	queue := make([]int32, 0, n)
	neigh := make([]int32, 0, 64)
	for _, seed := range order {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		queue = append(queue[:0], seed)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			perm[v] = next
			next++
			// Collect undirected neighbours in ascending id order for
			// determinism.
			neigh = neigh[:0]
			srcs, _ := g.InEdges(v)
			neigh = append(neigh, srcs...)
			dsts, _ := g.OutEdges(v)
			neigh = append(neigh, dsts...)
			sort.Slice(neigh, func(a, b int) bool { return neigh[a] < neigh[b] })
			for _, u := range neigh {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return perm
}

// DegreeSort returns a permutation placing high-in-degree vertices first —
// a simpler reordering that groups hub traffic (GNNAdvisor-style degree
// binning).
func DegreeSort(g *graph.Graph) []int32 {
	n := g.NumVertices()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := g.InDegree(order[a]), g.InDegree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	perm := make([]int32, n)
	for newID, oldID := range order {
		perm[oldID] = int32(newID)
	}
	return perm
}

// Apply relabels g with the given permutation (old id -> new id).
func Apply(g *graph.Graph, perm []int32) (*graph.Graph, error) {
	return g.Relabel(perm)
}

// EdgeCut scores a partition: the fraction of edges whose endpoints lie in
// different parts of owner (vertex id -> part id), in [0, 1]. It is the
// companion metric to Locality for partitioned execution — Locality measures
// how tight an ordering is, EdgeCut how little a partition communicates.
// Vertices with an owner outside any part still count: only owner[src] ==
// owner[dst] keeps an edge internal.
func EdgeCut(g *graph.Graph, owner []int32) float64 {
	m := g.NumEdges()
	if m == 0 || len(owner) < g.NumVertices() {
		return 0
	}
	cut := 0
	for e := int32(0); e < int32(m); e++ {
		s, d := g.EdgeEndpoints(e)
		if owner[s] != owner[d] {
			cut++
		}
	}
	return float64(cut) / float64(m)
}

// BlockOwners turns an ordering permutation (old id -> new id) into a
// k-part partition by cutting the new-id space into contiguous blocks of
// ceil(n/k) vertices: owner[v] = block of perm[v]. A locality-improving
// permutation therefore yields a locality-improving partition — the shard
// partitioner scores candidate orderings this way with EdgeCut. k > n
// produces trailing empty parts; k <= 0 is treated as 1.
func BlockOwners(perm []int32, k int) []int32 {
	n := len(perm)
	owner := make([]int32, n)
	if n == 0 {
		return owner
	}
	if k <= 0 {
		k = 1
	}
	block := (n + k - 1) / k
	for v, p := range perm {
		owner[v] = p / int32(block)
	}
	return owner
}

// Identity returns the identity permutation over n vertices, the "no
// reordering" candidate partition seeds compare against.
func Identity(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}
