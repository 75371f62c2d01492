package program

import (
	"fmt"
	"slices"
)

// Buffer planning: a liveness analysis over the (post-fusion) DAG that maps
// every intermediate value onto a small pool of reusable arena slots, so a
// compiled program's steady-state Run allocates nothing. Nodes are already
// in topological order, so each value's live interval is simply
// [defining node, last reading node] and a linear scan with a free list
// achieves the optimal slot count (= peak number of simultaneously live
// values).
//
// Two wrinkles beyond textbook linear scan:
//
//   - In-place aliasing. The interpreter applies activations in place; the
//     planner recovers that by letting a unary/add-scaled node write into
//     its dying input's slot (the float operations are element-independent,
//     so reading x[i] and writing out[i] to the same address is safe).
//   - Read-while-write hazards. Every other node kind (GEMM, concat,
//     head-merge, graph operators) reads whole operand rows while streaming
//     the output, so the output slot must never overlap a live operand: the
//     scan allocates the output BEFORE freeing operands that die at the same
//     node.

// NoSlot marks values without an arena slot (constants, unused values).
const NoSlot = -1

// BufferPlan is the result of liveness analysis and slot assignment.
type BufferPlan struct {
	// Assign maps each value to its arena slot (NoSlot for constants and
	// values no surviving node defines).
	Assign []int
	// InPlace marks nodes that write into their X operand's slot.
	InPlace []bool
	// SlotFloats is each slot's capacity in float32 elements — the max
	// rows*cols over the values it hosts on the planning graph.
	SlotFloats []int
	// Def and LastUse are each value's live interval in node indices
	// (LastUse == len(nodes) for the program output, which is never freed;
	// both are -1 for constants and undefined values).
	Def, LastUse []int
	// PeakLive is the maximum number of simultaneously held slots — equal to
	// len(SlotFloats) for this allocator, recorded separately so tests can
	// cross-check the invariant.
	PeakLive int
	// TotalFloats is the arena size: the sum of slot capacities.
	TotalFloats int
}

// aliasable reports whether node n may legally write into its X operand's
// storage: elementwise kinds whose element i depends only on operand
// elements i.
func aliasable(n *Node) bool {
	return (n.Op == OpUnary || n.Op == OpAddScaled) && n.X != n.Y
}

// PlanBuffers runs liveness analysis and linear-scan slot assignment over p
// for a graph with the given vertex/edge counts.
func PlanBuffers(p *Program, numVertices, numEdges int) (*BufferPlan, error) {
	nv := len(p.Values)
	plan := &BufferPlan{
		Assign:  make([]int, nv),
		InPlace: make([]bool, len(p.Nodes)),
		Def:     make([]int, nv),
		LastUse: make([]int, nv),
	}
	for v := 0; v < nv; v++ {
		plan.Assign[v] = NoSlot
		plan.Def[v] = -1
		plan.LastUse[v] = -1
	}

	// Liveness: definition and last-use indices. Constants own their storage
	// and stay out of the plan entirely.
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Op != OpConst {
			if plan.Def[n.Out] >= 0 {
				return nil, fmt.Errorf("program: value %d defined twice (node %d and %d)", n.Out, plan.Def[n.Out], i)
			}
			plan.Def[n.Out] = i
		}
		for _, v := range n.operands() {
			if v != NoValue && !p.Values[v].Const {
				plan.LastUse[v] = i
			}
		}
	}
	if plan.Def[p.Output] < 0 {
		return nil, fmt.Errorf("program: output value %d has no defining node", p.Output)
	}
	// The output survives the whole program: sentinel past the last node.
	plan.LastUse[p.Output] = len(p.Nodes)

	// Linear scan. freeSlots is a LIFO of released slot ids; held counts
	// slots currently bound to live values.
	var freeSlots []int
	nextSlot := 0
	held := 0
	alloc := func() int {
		if n := len(freeSlots); n > 0 {
			s := freeSlots[n-1]
			freeSlots = freeSlots[:n-1]
			held++
			return s
		}
		s := nextSlot
		nextSlot++
		held++
		return s
	}
	free := func(s int) {
		freeSlots = append(freeSlots, s)
		held--
	}

	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Op == OpConst {
			continue
		}
		// Dying operands: values whose last read is this node. Deduplicated in
		// case one value is bound to several operands.
		var dying []ValueID
		for _, v := range n.operands() {
			if v != NoValue && plan.Assign[v] != NoSlot && plan.LastUse[v] == i && !slices.Contains(dying, v) {
				dying = append(dying, v)
			}
		}

		// In-place aliasing: reuse the dying X slot directly.
		if aliasable(n) && n.X != NoValue && plan.Assign[n.X] != NoSlot && plan.LastUse[n.X] == i {
			plan.Assign[n.Out] = plan.Assign[n.X]
			plan.InPlace[i] = true
			// X's slot transfers to Out; free any *other* dying operand.
			for _, v := range dying {
				if v != n.X {
					free(plan.Assign[v])
				}
			}
			if held > plan.PeakLive {
				plan.PeakLive = held
			}
			continue
		}

		// Hazard-safe order: the output takes a slot no dying operand still
		// occupies, then the dead operands release theirs.
		plan.Assign[n.Out] = alloc()
		if held > plan.PeakLive {
			plan.PeakLive = held
		}
		for _, v := range dying {
			free(plan.Assign[v])
		}
		// A value nothing reads (only possible without dead-code elimination)
		// releases its slot immediately: later definitions may overwrite it.
		if plan.LastUse[n.Out] < 0 {
			free(plan.Assign[n.Out])
		}
	}

	// Slot capacities: max footprint over hosted values.
	plan.SlotFloats = make([]int, nextSlot)
	for v := 0; v < nv; v++ {
		s := plan.Assign[v]
		if s == NoSlot {
			continue
		}
		rows := numVertices
		if p.Values[v].Rows == EdgeRows {
			rows = numEdges
		}
		if f := rows * p.Values[v].Cols; f > plan.SlotFloats[s] {
			plan.SlotFloats[s] = f
		}
	}
	for _, f := range plan.SlotFloats {
		plan.TotalFloats += f
	}
	return plan, nil
}
