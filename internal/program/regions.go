package program

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// The fusion pass (paper §5.2): recorded programs always spell aggregations
// as the decomposed two-kernel form — an explicit message-creation operator
// that materialises |E| x F edge messages, followed by a pure scatter that
// reduces them — because that form is the common denominator every engine
// can run (PyG never fuses). Engines that do fuse get the single-kernel form
// back here, at compile time: materialise+scatter pairs merge into one
// fused-aggregation operator that reads the original vertex/edge operands
// directly during the reduction, so the |E| x F intermediate never exists —
// the "redundant accesses" of §2.
//
// The same pass then grows each graph operator into a maximal legal *region*
// — the operator plus the single-consumer elementwise chains feeding its
// operands (prologues, staged at launch) and the single-consumer elementwise
// chain consuming its output (the epilogue, applied in place after the
// reduction) — and the whole region lowers as one composed kernel
// (core.ComposeRegion). The bare pair is the degenerate region with no
// absorbed chains, which is all a PairOnly cost model leaves.
//
// Growth is cost-modeled, not unconditional. Absorbing an epilogue always
// wins (the interior tensor's write+read round trip disappears and a kernel
// launch is saved), but absorbing a prologue only trades a launch for a
// staging copy — worth it for small operands, a loss for large ones. The
// CostModel quantifies both; the static verifier re-derives an independent
// upper bound on every claimed saving (analysis.RuleFusionRegionCost), so a
// cost-model bug cannot silently mis-shape compiled programs.

// CostModel prices fusion-region decisions in bytes of saved memory traffic.
type CostModel struct {
	// LaunchOverheadBytes is the traffic-equivalent cost of one kernel
	// launch: absorbing a node always saves one launch, worth this many
	// bytes of avoided traffic.
	LaunchOverheadBytes int64
	// StagingPenalty scales the staging-copy cost of prologue absorption:
	// staging re-reads and re-writes the operand, so absorbing a prologue
	// over a value of b bytes costs StagingPenalty*b against the saved
	// launch.
	StagingPenalty float64
	// PairOnly prices every absorption and every dense rewrite (rewrite.go)
	// as a loss: only the materialise+scatter pair rewrite runs, which is what
	// the baseline frameworks that fuse at all do (DGL).
	PairOnly bool
	// stepsOnly keeps every recorded edge-side step a step of its own: Compile
	// sets it when the backend turned down a row-resident region
	// (core.ErrNoRowRegion) and compiles again.
	stepsOnly bool
}

// DefaultCostModel is the model Compile uses: a launch is worth 16 KiB of
// traffic (a host parallel-dispatch round trip), and a staging copy costs
// half the staged bytes (one write plus a cache-warm re-read).
func DefaultCostModel() CostModel {
	return CostModel{LaunchOverheadBytes: 1 << 14, StagingPenalty: 0.5}
}

// RegionInfo annotates a graph node that heads a fusion region. The static
// verifier decomposes the region back into the recorded program using
// exactly these fields (analysis.RuleFusionRegion), so they are part of the
// verified compile contract, not just bookkeeping.
type RegionInfo struct {
	// Name is the bounded region label ("<base>_region<N>") used for the
	// composed kernel's telemetry site.
	Name string
	// PreX and PreY are elementwise chains absorbed into the operand reads:
	// the region stages chain(operand) into a compile-time buffer before the
	// graph kernel runs. Ordered producer-first (the verifier peels from the
	// tail).
	PreX, PreY []Unary
	// Post is the epilogue chain applied in place to the region output after
	// the graph kernel runs.
	Post []Unary
	// Absorbed counts the recorded nodes folded into the region beyond the
	// materialise+scatter pair itself.
	Absorbed int
	// SavedBytes is the cost model's claimed traffic saving for the whole
	// region (pair intermediate plus absorbed chains).
	SavedBytes int64
	// Interior makes the region row-resident: the recorded nodes, producer
	// first and each in its compiled form (an edge-output operator keeps the
	// epilogue it had absorbed), that compute the head's Edge operand inside
	// the head's row chunks. Their values have no storage outside a chunk: no
	// surviving node but the head reads them, and the buffer planner never
	// sees them.
	Interior []Node
}

// interior reports whether v is defined by one of the region's interior nodes.
func (r *RegionInfo) interior(v ValueID) bool {
	for i := range r.Interior {
		if r.Interior[i].Out == v {
			return v != NoValue
		}
	}
	return false
}

// RegionStats summarises what FuseRegions did.
type RegionStats struct {
	// Pairs is how many materialise+scatter pairs merged (same as Fuse).
	Pairs int
	// Regions is how many regions absorbed at least one node beyond the
	// pair rewrite.
	Regions int
	// Absorbed is the total count of absorbed prologue/epilogue nodes.
	Absorbed int
	// SavedBytes is the cost model's total claimed traffic saving.
	SavedBytes int64
}

// PairOnlyCostModel is the model of an engine that fuses pairs and nothing
// else.
func PairOnlyCostModel() CostModel { return CostModel{PairOnly: true} }

// RegionPolicy is an optional Scheduler extension: a fusing scheduler that
// implements it chooses the cost model Compile grows fusion regions and
// rewrites dense steps under. Schedulers without it get DefaultCostModel.
type RegionPolicy interface {
	FusionCostModel() CostModel
}

// fuseCandidate reports whether node n materialises edge messages in the
// canonical decomposed shape: a non-reducing gather writing an edge tensor.
func fuseCandidate(n *Node) bool {
	return n.Op == OpGraph &&
		n.GOp.CKind == tensor.EdgeK &&
		n.GOp.GatherOp == ops.GatherCopyRHS
}

// fuseScatter reports whether node n is the canonical pure scatter: copy the
// edge tensor through and reduce per destination.
func fuseScatter(n *Node) bool {
	return n.Op == OpGraph &&
		n.GOp.EdgeOp == ops.CopyRHS &&
		n.GOp.GatherOp.IsReduction() &&
		n.GOp.AKind == tensor.Null &&
		n.GOp.BKind == tensor.EdgeK &&
		n.GOp.CKind == tensor.DstV
}

// mergedName strips the decomposition suffixes so the fused operator carries
// the stage name the interpreter would use ("GCN_L1_Aggr_materialize" +
// "GCN_L1_Aggr_scatter" -> "GCN_L1_Aggr"). Pairs outside the canonical
// naming convention get a bounded fallback — the materialise name truncated
// plus a "_fused" marker — so merged labels stay stable and short instead of
// concatenating two arbitrary stage names.
func mergedName(mat, scat string) string {
	if base := strings.TrimSuffix(mat, "_materialize"); base != mat && base == strings.TrimSuffix(scat, "_scatter") {
		return base
	}
	const maxBase = 24
	if len(mat) > maxBase {
		mat = mat[:maxBase]
	}
	return mat + "_fused"
}

// fusePairs merges, in place over nodes, every materialise+scatter pair whose
// intermediate edge tensor has exactly one consumer and is not the program
// output: the materialise becomes the fused-aggregation operator defining the
// scatter's value, the scatter is marked removed. Returns the pair count.
func fusePairs(nodes []Node, removed []bool, uses []int, output ValueID) int {
	fused := 0
	for i := range nodes {
		mat := &nodes[i]
		if !fuseCandidate(mat) || uses[mat.Out] != 1 || mat.Out == output {
			continue
		}
		// Find the single consumer; it must be a canonical scatter reading the
		// messages as operand B.
		for j := i + 1; j < len(nodes); j++ {
			scat := &nodes[j]
			if !readsValue(scat, mat.Out) {
				continue
			}
			merged := Node{
				Op:    OpGraph,
				Name:  mergedName(mat.Name, scat.Name),
				X:     mat.X,
				Y:     mat.Y,
				Out:   scat.Out,
				Fused: true,
				GOp: ops.OpInfo{
					EdgeOp:   mat.GOp.EdgeOp,
					GatherOp: scat.GOp.GatherOp,
					AKind:    mat.GOp.AKind,
					BKind:    mat.GOp.BKind,
					CKind:    tensor.DstV,
				},
			}
			// Anything else is not a legal fused form; keep the pair.
			if fuseScatter(scat) && scat.Y == mat.Out && merged.GOp.Validate() == nil {
				nodes[i] = merged
				removed[j] = true
				fused++
			}
			break
		}
	}
	return fused
}

// regionName builds the bounded region label: the head node's name truncated
// to keep telemetry labels short, plus a stable per-program sequence number.
func regionName(base string, seq int) string {
	const maxBase = 24
	if len(base) > maxBase {
		base = base[:maxBase]
	}
	return fmt.Sprintf("%s_region%d", base, seq)
}

// FuseRegions runs pair fusion and then grows cost-accepted fusion regions
// around every graph operator: single-consumer elementwise epilogues are
// absorbed into the output, and single-consumer elementwise prologues into
// the operand reads when the cost model accepts the trade. Every fused pair
// is annotated with a RegionInfo (the degenerate region) so the verifier's
// region rules cover the whole fusion surface. Returns the rewritten
// program (sharing the value table — ValueIDs stay stable) and the region
// statistics.
func FuseRegions(p *Program, numV, numE int, cm CostModel) (*Program, RegionStats) {
	var stats RegionStats
	work := p
	bytesOf := func(v ValueID) int64 { return work.Values[v].bytes(numV, numE) }

	nodes := append([]Node(nil), work.Nodes...)
	removed := make([]bool, len(nodes))
	uses := useCounts(work)
	stats.Pairs = fusePairs(nodes, removed, uses, work.Output)
	defIdx := make(map[ValueID]int, len(nodes))
	for i := range nodes {
		if !removed[i] {
			defIdx[nodes[i].Out] = i
		}
	}
	// consumerOf finds the unique node reading v (valid only when uses[v]==1).
	consumerOf := func(v ValueID) int {
		for j := range nodes {
			if !removed[j] && readsValue(&nodes[j], v) {
				return j
			}
		}
		return -1
	}

	regionSeq := 0
	for i := range nodes {
		n := &nodes[i]
		if removed[i] || n.Op != OpGraph {
			continue
		}
		ensure := func() *RegionInfo {
			if n.Region == nil {
				n.Region = &RegionInfo{Name: regionName(n.Name, regionSeq)}
				regionSeq++
			}
			return n.Region
		}
		if n.Fused {
			// The degenerate region: the pair rewrite already erased the
			// |E| x F intermediate, whose width equals the fused output's.
			ensure().SavedBytes += 2 * 4 * int64(numE) * int64(work.Values[n.Out].Cols)
		}

		if cm.PairOnly {
			continue
		}

		// Epilogue absorption: while the region output has exactly one
		// consumer and it is an elementwise chain, fold the chain in. The
		// erased interior's round trip plus a launch always beats the
		// in-place epilogue's cost, so no gate is needed.
		for {
			out := n.Out
			if out == work.Output || uses[out] != 1 {
				break
			}
			ci := consumerOf(out)
			if ci < 0 {
				break
			}
			u := &nodes[ci]
			if u.Op != OpUnary || u.X != out {
				break
			}
			info := ensure()
			info.Post = append(info.Post, u.Chain...)
			info.Absorbed++
			info.SavedBytes += bytesOf(out) + cm.LaunchOverheadBytes
			removed[ci] = true
			uses[out]--
			delete(defIdx, out)
			n.Out = u.Out
			defIdx[n.Out] = i
		}

		// Growth through the Edge operand: a reducing head takes in the
		// destination-local nodes that compute it (growInterior). Whatever it
		// absorbs saves its launch and its value's write and read back.
		if !cm.stepsOnly {
			for _, di := range growInterior(nodes, removed, i, defIdx, work.Output) {
				d := nodes[di]
				info := ensure()
				info.Interior = append(info.Interior, d)
				info.Absorbed++
				info.SavedBytes += 2*bytesOf(d.Out) + cm.LaunchOverheadBytes
				if d.Region != nil {
					info.Absorbed += d.Region.Absorbed
					info.SavedBytes += d.Region.SavedBytes
				}
				removed[di] = true
				delete(defIdx, d.Out)
			}
		}

		// Prologue absorption: fold single-consumer elementwise chains
		// feeding an operand into a staged read, when the saved launch
		// outweighs the staging copy. Chains are prepended so the slice
		// stays producer-first.
		absorbOperand := func(opnd *ValueID, dst func(*RegionInfo) *[]Unary) {
			for {
				v := *opnd
				if v == NoValue || v == work.Output || uses[v] != 1 || (n.Region != nil && n.Region.interior(v)) {
					return
				}
				di, ok := defIdx[v]
				if !ok || removed[di] {
					return
				}
				d := &nodes[di]
				if d.Op != OpUnary {
					return
				}
				gain := cm.LaunchOverheadBytes - int64(cm.StagingPenalty*float64(bytesOf(v)))
				if gain <= 0 {
					return
				}
				info := ensure()
				chain := dst(info)
				*chain = append(append([]Unary(nil), d.Chain...), *chain...)
				info.Absorbed++
				info.SavedBytes += gain
				removed[di] = true
				uses[v]--
				delete(defIdx, v)
				*opnd = d.X
			}
		}
		absorbOperand(&n.X, func(r *RegionInfo) *[]Unary { return &r.PreX })
		absorbOperand(&n.Y, func(r *RegionInfo) *[]Unary { return &r.PreY })
	}

	out := &Program{
		Model: work.Model, InCols: work.InCols, Classes: work.Classes,
		Values: work.Values, Input: work.Input, Output: work.Output,
	}
	out.Nodes = make([]Node, 0, len(nodes))
	for i := range nodes {
		if removed[i] {
			continue
		}
		if r := nodes[i].Region; r != nil {
			stats.Absorbed += r.Absorbed
			stats.SavedBytes += r.SavedBytes
			if r.Absorbed > 0 {
				stats.Regions++
			}
		}
		out.Nodes = append(out.Nodes, nodes[i])
	}
	return out, stats
}

// edgeOutput reports whether n is an edge-output graph operator the
// row-resident form can run as a stage: it may carry an absorbed epilogue, not
// a staged prologue.
func edgeOutput(n *Node) bool {
	return n.Op == OpGraph && n.GOp.CKind == tensor.EdgeK && !n.GOp.GatherOp.IsReduction() &&
		(n.Region == nil || len(n.Region.PreX)+len(n.Region.PreY)+len(n.Region.Interior) == 0)
}

// pureScatter reports whether n only reduces an edge value per destination:
// the recorded scatter, nothing merged into it and nothing absorbed.
func pureScatter(n *Node) bool { return fuseScatter(n) && !n.Fused && n.Region == nil }

// growInterior finds the interior of the row-resident region headed by the
// reducing Dst_V operator nodes[hi]: the largest set of surviving nodes that
// compute its Edge operand and are destination-local —
//
//   - an edge-output operator, whatever it reads (external Src_V, Dst_V or
//     Edge values, or interior ones);
//   - the pure scatter of an interior Edge value, when its Dst_V result is
//     only ever read back through a Dst_V operand: row v's edges then read
//     what row v's chunk wrote;
//   - an elementwise chain or the head merge over an interior Edge value —
//
// such that every interior value is read inside the region only and none is
// the program's output. The head's other operand must be an ordinary vertex
// value. It returns the interior's node indices in program order, nil when
// the operand's own producer cannot be absorbed. Legality is all there is to
// decide: an absorbed node always saves its launch and its value's round trip.
func growInterior(nodes []Node, removed []bool, hi int, defIdx map[ValueID]int, output ValueID) []int {
	h := &nodes[hi]
	if h.Op != OpGraph || h.GOp.CKind != tensor.DstV || !h.GOp.GatherOp.IsReduction() {
		return nil
	}
	var edge ValueID
	switch {
	case h.GOp.BKind == tensor.EdgeK && h.GOp.AKind != tensor.EdgeK:
		edge = h.Y
	case h.GOp.AKind == tensor.EdgeK && h.GOp.BKind != tensor.EdgeK:
		edge = h.X
	default:
		return nil
	}

	// pinned nodes stay steps of their own. Each round computes the closure
	// from the Edge operand around them, then pins the producer of any value
	// the closure would erase while something outside still reads it.
	pinned := map[int]bool{}
	for {
		in := map[int]bool{}
		var absorb func(v ValueID) bool
		absorb = func(v ValueID) bool {
			di, ok := defIdx[v]
			if !ok || removed[di] || pinned[di] || v == output {
				return false
			}
			if in[di] {
				return true
			}
			d, ok := &nodes[di], false
			switch {
			case edgeOutput(d):
				ok = true
				for _, u := range d.operands() {
					absorb(u) // an operand that stays outside is read from storage
				}
			case pureScatter(d):
				ok = absorb(d.Y)
			case d.Op == OpUnary || d.Op == OpHeadMerge:
				ok = absorb(d.X)
			}
			if ok {
				in[di] = true
			}
			return ok
		}
		if !absorb(edge) {
			return nil
		}
		// pin keeps the producer of v a step of its own.
		stable := true
		pin := func(v ValueID) {
			pinned[defIdx[v]], stable = true, false
		}
		for j := range nodes {
			if removed[j] {
				continue
			}
			r := &nodes[j]
			for _, v := range r.operands() {
				di, ok := defIdx[v]
				switch {
				case !ok || !in[di]:
				case !in[j]:
					// Read from outside: only the head may, and only as its Edge operand.
					if j != hi || v != edge {
						pin(v)
					}
				case pureScatter(&nodes[di]):
					// A scatter's result must come back through a Dst_V operand,
					// or it leaves the row that wrote it.
					if r.Op != OpGraph || (r.X == v && r.GOp.AKind != tensor.DstV) || (r.Y == v && r.GOp.BKind != tensor.DstV) {
						pin(v)
					}
				}
			}
		}
		if stable {
			order := make([]int, 0, len(in))
			for di := range in {
				order = append(order, di)
			}
			slices.Sort(order)
			return order
		}
	}
}

// interiorOf describes the interior of the row-resident region headed by n to
// the backend (core.Interior): one stage per interior node, two for an
// edge-output operator that had absorbed an epilogue, operands resolved to
// their views or to the interior value an earlier stage produced. An
// elementwise chain runs in place on its input's slab when nothing else in the
// region reads that input afterwards.
func interiorOf(p *Program, n *Node, views []*tensor.Dense) *core.Interior {
	r := n.Region
	in := &core.Interior{A: -1, B: -1}
	index := map[ValueID]int{}
	define := func(v ValueID, kind tensor.Kind) int {
		in.Values = append(in.Values, core.InteriorValue{Kind: kind, Cols: p.Values[v].Cols})
		index[v] = len(in.Values) - 1
		return index[v]
	}
	operand := func(v ValueID, kind tensor.Kind) core.InteriorOperand {
		if i, ok := index[v]; ok && kind != tensor.Null {
			return core.InteriorOperand{In: i}
		}
		t := tensor.Typed{Kind: kind}
		if kind != tensor.Null {
			t.T = views[v]
		}
		return core.External(t)
	}
	apply := func(chain []Unary) func(*tensor.Dense) {
		return func(d *tensor.Dense) {
			for _, u := range chain {
				u.Apply(d)
			}
		}
	}
	for i := range r.Interior {
		d := &r.Interior[i]
		switch d.Op {
		case OpGraph:
			op := d.GOp
			op.Name = d.Name
			st := core.InteriorStage{Name: d.Name, Op: op, A: operand(d.X, op.AKind), B: operand(d.Y, op.BKind)}
			st.Out = define(d.Out, op.CKind)
			in.Stages = append(in.Stages, st)
			if d.Region != nil && len(d.Region.Post) > 0 {
				in.Stages = append(in.Stages, core.InteriorStage{
					Name: d.Name + " epilogue", Chain: apply(d.Region.Post), A: core.InteriorOperand{In: st.Out}, Out: st.Out,
				})
			}
		case OpUnary:
			src := index[d.X]
			readLater := n.X == d.X || n.Y == d.X // the head binds it directly
			for j := i + 1; j < len(r.Interior); j++ {
				readLater = readLater || readsValue(&r.Interior[j], d.X)
			}
			out := src
			if readLater {
				out = define(d.Out, tensor.EdgeK)
			}
			index[d.Out] = out
			in.Stages = append(in.Stages, core.InteriorStage{Name: d.Name, Chain: apply(d.Chain), A: core.InteriorOperand{In: src}, Out: out})
		case OpHeadMerge:
			src := index[d.X]
			in.Stages = append(in.Stages, core.InteriorStage{Name: d.Name, RowMean: true, A: core.InteriorOperand{In: src}, Out: define(d.Out, tensor.EdgeK)})
		}
	}
	if i, ok := index[n.X]; ok {
		in.A = i
	}
	if i, ok := index[n.Y]; ok {
		in.B = i
	}
	return in
}

// rowRegionNote is the provenance line of a lowered row-resident region: what
// the interior values would have streamed as tensors — each written once and
// read once per reader — the stages that now run in the chunk, and the slabs.
func rowRegionNote(p *Program, n *Node, in *core.Interior, numV, numE, slabFloats int) RewriteNote {
	r := n.Region
	var bytes int64
	for i := range r.Interior {
		d := &r.Interior[i]
		readers := int64(0)
		if n.X == d.Out || n.Y == d.Out {
			readers++
		}
		for j := range r.Interior {
			if readsValue(&r.Interior[j], d.Out) {
				readers++
			}
		}
		bytes += (1 + readers) * p.Values[d.Out].bytes(numV, numE)
	}
	names := make([]string, len(in.Stages))
	for i := range in.Stages {
		names[i] = in.Stages[i].Name
	}
	return RewriteNote{
		Pass: PassRowResident, Node: n.Name, Accepted: true, Rule: analysis.RuleFusionRegion, BytesBefore: bytes,
		Detail: fmt.Sprintf("%d interior stages in the row chunks (%s), slabs %.1f KiB",
			len(names), strings.Join(names, ", "), float64(slabFloats)*4/1024),
	}
}

// EliminateDead removes nodes whose result is transitively unused (the
// orphaned constants and stages fusion can leave behind). The input node is
// always kept — Run binds caller data to it. Returns the pruned program and
// the number of nodes removed.
func EliminateDead(p *Program) (*Program, int) {
	live := make([]bool, len(p.Values))
	live[p.Output] = true
	live[p.Input] = true
	// Nodes are in topological order, so one reverse sweep settles liveness.
	keep := make([]bool, len(p.Nodes))
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		n := &p.Nodes[i]
		if !live[n.Out] && n.Op != OpInput {
			continue
		}
		keep[i] = true
		for _, v := range n.operands() {
			if v != NoValue {
				live[v] = true
			}
		}
	}
	removed := 0
	out := &Program{
		Model: p.Model, InCols: p.InCols, Classes: p.Classes,
		Values: p.Values, Input: p.Input, Output: p.Output,
	}
	out.Nodes = make([]Node, 0, len(p.Nodes))
	for i := range p.Nodes {
		if !keep[i] {
			removed++
			continue
		}
		out.Nodes = append(out.Nodes, p.Nodes[i])
	}
	return out, removed
}

// useCounts tallies how many node operands read each value.
func useCounts(p *Program) []int {
	uses := make([]int, len(p.Values))
	for i := range p.Nodes {
		for _, v := range p.Nodes[i].operands() {
			if v != NoValue {
				uses[v]++
			}
		}
	}
	return uses
}

// readsValue reports whether node n reads v.
func readsValue(n *Node, v ValueID) bool {
	for _, o := range n.operands() {
		if o == v {
			return true
		}
	}
	return false
}
