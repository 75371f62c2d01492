package analysis

import "fmt"

// Buffer-plan rules. The planner (program/buffers.go) maps intermediates
// onto a small pool of reusable arena slots; these rules recompute liveness
// intervals from the compiled IR alone and prove the assignment safe: no two
// simultaneously-live values share storage, every slot fits its values, and
// in-place writes happen only where element i of the output depends on
// element i of the input alone.

// interval is a value's live range in node indices: [def, last]. last is
// def itself for values nothing reads, and len(nodes) for the output (which
// must survive the whole run).
type interval struct{ def, last int }

func (iv interval) overlaps(other interval) bool {
	return iv.def <= other.last && other.def <= iv.last
}

// checkBuffers verifies the buffer plan b against program p.
func checkBuffers(p *ProgramIR, b *BufferFacts) []Diagnostic {
	var diags []Diagnostic
	if len(b.Assign) != len(p.Values) || len(b.InPlace) != len(p.Nodes) {
		return []Diagnostic{{
			Rule: RuleBufferAlias,
			Msg: fmt.Sprintf("plan shape mismatch: %d assignments for %d values, %d in-place marks for %d nodes",
				len(b.Assign), len(p.Values), len(b.InPlace), len(p.Nodes)),
			Hint: "the plan must cover exactly the compiled program",
		}}
	}

	// Recompute live intervals. Constants own their recorded storage and are
	// exempt from the plan.
	ivs := make([]interval, len(p.Values))
	for v := range ivs {
		ivs[v] = interval{def: -1, last: -1}
	}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Kind != KindConst && n.Out >= 0 && n.Out < len(p.Values) {
			ivs[n.Out].def = i
		}
		for _, v := range n.operands() {
			if v != NoValue && v >= 0 && v < len(p.Values) && !p.Values[v].Const {
				ivs[v].last = i
			}
		}
	}
	if p.Output >= 0 && p.Output < len(p.Values) {
		ivs[p.Output].last = len(p.Nodes)
	}
	for v := range ivs {
		if ivs[v].last < ivs[v].def {
			ivs[v].last = ivs[v].def // written but never read: live at def only
		}
	}

	// Per-value checks: every planned value needs a slot, and the slot must
	// fit the value's footprint on this graph.
	planned := func(v int) bool {
		return ivs[v].def >= 0 && !p.Values[v].Const
	}
	bySlot := make(map[int][]int)
	for v := range p.Values {
		if !planned(v) {
			continue
		}
		s := b.Assign[v]
		if s < 0 || s >= len(b.SlotFloats) {
			diags = append(diags, Diagnostic{
				Rule: RuleBufferAlias, Values: []int{v},
				Msg:  fmt.Sprintf("live value %d has no arena slot (assigned %d of %d)", v, s, len(b.SlotFloats)),
				Hint: "every non-constant defined value needs storage",
			})
			continue
		}
		rows := b.NumVertices
		if p.Values[v].Rows == EdgeRows {
			rows = b.NumEdges
		}
		if need := rows * p.Values[v].Cols; need > b.SlotFloats[s] {
			diags = append(diags, Diagnostic{
				Rule: RuleBufferCapacity, Values: []int{v},
				Msg:  fmt.Sprintf("value %d needs %d floats but slot %d holds %d", v, need, s, b.SlotFloats[s]),
				Hint: "slot capacity must cover the largest hosted value",
			})
		}
		bySlot[s] = append(bySlot[s], v)
	}

	// In-place claims: a node may write into its X operand's slot only when
	// it is elementwise, X dies at the node, X and Y differ, and the slots
	// actually coincide (a stale mark makes Run skip the operand copy).
	inPlacePair := make(map[[2]int]bool) // {x, out} pairs excused below
	for i := range p.Nodes {
		if !b.InPlace[i] {
			continue
		}
		n := &p.Nodes[i]
		bad := func(msg string) {
			diags = append(diags, Diagnostic{
				Rule: RuleInPlace, Node: n.Name, Values: []int{n.Out},
				Msg:  msg,
				Hint: "in-place writes need an elementwise node over a dying operand",
			})
		}
		switch {
		case !n.Kind.Elementwise():
			bad(fmt.Sprintf("%s node marked in-place; only elementwise nodes may alias their operand", n.Kind))
		case n.X == NoValue || n.X == n.Y:
			bad("in-place node lacks a distinct X operand")
		case b.Assign[n.X] != b.Assign[n.Out]:
			bad(fmt.Sprintf("in-place node's operand (slot %d) and output (slot %d) do not share storage", b.Assign[n.X], b.Assign[n.Out]))
		case ivs[n.X].last != i:
			bad(fmt.Sprintf("in-place node overwrites value %d which is still read at node %d", n.X, ivs[n.X].last))
		default:
			inPlacePair[[2]int{n.X, n.Out}] = true
		}
	}

	// Alias rule: two values sharing a slot must have disjoint live
	// intervals, except the verified in-place pairs (which overlap at
	// exactly their defining node, by construction element-safe).
	for s, vals := range bySlot {
		for i := 0; i < len(vals); i++ {
			for j := i + 1; j < len(vals); j++ {
				a, c := vals[i], vals[j]
				if !ivs[a].overlaps(ivs[c]) {
					continue
				}
				if inPlacePair[[2]int{a, c}] || inPlacePair[[2]int{c, a}] {
					continue
				}
				diags = append(diags, Diagnostic{
					Rule: RuleBufferAlias, Values: []int{a, c},
					Msg: fmt.Sprintf("values %d (live [%d,%d]) and %d (live [%d,%d]) share slot %d while both live",
						a, ivs[a].def, ivs[a].last, c, ivs[c].def, ivs[c].last, s),
					Hint: "overlapping live ranges need distinct slots",
				})
			}
		}
	}
	return diags
}
