package program

import (
	"fmt"
	"strings"

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

		// Prologue absorption: fold single-consumer elementwise chains
		// feeding an operand into a staged read, when the saved launch
		// outweighs the staging copy. Chains are prepended so the slice
		// stays producer-first.
		absorbOperand := func(opnd *ValueID, dst func(*RegionInfo) *[]Unary) {
			for {
				v := *opnd
				if v == NoValue || v == work.Output || uses[v] != 1 {
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
