package ops

import (
	"fmt"
	"sort"

	"repro/internal/tensor"
)

// This file reconstructs the graph-operator space that the paper's Table 2
// counts (DGL's 160 built-in graph operators) and Table 4 represents.
//
// DGL names message functions u_<op>_v, u_<op>_e, ..., copy_u, copy_e, where
// u = source vertex, v = destination vertex, e = edge, and <op> ranges over
// five binary ops {add, sub, mul, div, dot}; reductions range over
// {sum, max, min, mean}. That yields exactly the Table 2 census:
//
//	message creation:  V->E: u_op_v + v_op_u (10) + copy_u (1)  = 11
//	                   E->E: copy_e                             = 1
//	                   V&E->E: {u,e},{e,u},{v,e},{e,v} x 5 ops  = 20
//	message aggregation E->V: copy_e + 4 reductions             = 4
//	fused aggregation  V->V:  11 creations x 4 reductions       = 44
//	                   V&E->V: 20 creations x 4 reductions      = 80
//	                                                       total 160
//
// Every entry maps to an OpInfo of the unified abstraction. DGL's "dot"
// composes an element-wise multiply with a feature-dimension reduction; its
// traversal, addressing and scheduling behaviour is that of "mul", so its
// OpInfo uses EdgeMul (the feature reduction is a dense epilogue outside the
// graph operator).

// RegistryEntry is one DGL-style built-in graph operator.
type RegistryEntry struct {
	// DGLName is the framework-facing spelling, e.g. "u_mul_e.sum" for
	// update_all(u_mul_e, sum) or "u_add_v" for apply_edges(u_add_v).
	DGLName string
	Class   Class
	// InputKinds lists the distinct non-null input kinds ("V", "E", "V&E").
	InputKinds string
	// OutputKind is "V" or "E".
	OutputKind string
	Info       OpInfo
}

var binaryOps = []struct {
	dgl string
	op  EdgeOp
}{
	{"add", EdgeAdd}, {"sub", EdgeSub}, {"mul", EdgeMul}, {"div", EdgeDiv}, {"dot", EdgeMul},
}

var reduceOps = []struct {
	dgl string
	op  GatherOp
}{
	{"sum", GatherSum}, {"max", GatherMax}, {"min", GatherMin}, {"mean", GatherMean},
}

// operandKind maps a DGL operand letter to a tensor kind.
func operandKind(letter byte) tensor.Kind {
	switch letter {
	case 'u':
		return tensor.SrcV
	case 'v':
		return tensor.DstV
	case 'e':
		return tensor.EdgeK
	default:
		// invariant: letters come from the literal u/v/e loops in
		// registerAll below, never from parsed input.
		panic(fmt.Sprintf("ops: bad operand letter %q", letter))
	}
}

func inputClass(a, b tensor.Kind) string {
	hasV := a.IsVertex() || b.IsVertex()
	hasE := a == tensor.EdgeK || b == tensor.EdgeK
	switch {
	case hasV && hasE:
		return "V&E"
	case hasV:
		return "V"
	default:
		return "E"
	}
}

// messageCreations enumerates the 32 message-creation operators (11 V->E,
// 1 E->E, 20 V&E->E).
func messageCreations() []RegistryEntry {
	var entries []RegistryEntry
	add := func(name string, info OpInfo) {
		info.Name = name
		entries = append(entries, RegistryEntry{
			DGLName:    name,
			Class:      MessageCreation,
			InputKinds: inputClass(info.AKind, info.BKind),
			OutputKind: "E",
			Info:       info,
		})
	}
	// copy_u, copy_e.
	add("copy_u", OpInfo{EdgeOp: CopyLHS, GatherOp: GatherCopyRHS, AKind: tensor.SrcV, CKind: tensor.EdgeK})
	add("copy_e", OpInfo{EdgeOp: CopyRHS, GatherOp: GatherCopyRHS, BKind: tensor.EdgeK, CKind: tensor.EdgeK})
	// Binary pairs: both orders of (u,v) and the four vertex-edge pairings.
	pairs := []struct{ a, b byte }{
		{'u', 'v'}, {'v', 'u'},
		{'u', 'e'}, {'e', 'u'}, {'v', 'e'}, {'e', 'v'},
	}
	for _, p := range pairs {
		for _, b := range binaryOps {
			name := fmt.Sprintf("%c_%s_%c", p.a, b.dgl, p.b)
			add(name, OpInfo{
				EdgeOp:   b.op,
				GatherOp: GatherCopyRHS,
				AKind:    operandKind(p.a),
				BKind:    operandKind(p.b),
				CKind:    tensor.EdgeK,
			})
		}
	}
	return entries
}

// messageAggregations enumerates the 4 pure aggregations (copy_e + reduce).
func messageAggregations() []RegistryEntry {
	var entries []RegistryEntry
	for _, r := range reduceOps {
		name := "copy_e." + r.dgl
		entries = append(entries, RegistryEntry{
			DGLName:    name,
			Class:      MessageAggregation,
			InputKinds: "E",
			OutputKind: "V",
			Info: OpInfo{
				Name:     name,
				EdgeOp:   CopyRHS,
				GatherOp: r.op,
				BKind:    tensor.EdgeK,
				CKind:    tensor.DstV,
			},
		})
	}
	return entries
}

// fusedAggregations enumerates the 124 fused operators: every message
// creation whose inputs include a vertex tensor, times every reduction.
func fusedAggregations() []RegistryEntry {
	var entries []RegistryEntry
	for _, mc := range messageCreations() {
		if mc.DGLName == "copy_e" {
			continue // copy_e.reduce is pure aggregation, counted above
		}
		for _, r := range reduceOps {
			info := mc.Info
			info.GatherOp = r.op
			info.CKind = tensor.DstV
			info.Name = mc.DGLName + "." + r.dgl
			entries = append(entries, RegistryEntry{
				DGLName:    info.Name,
				Class:      FusedAggregation,
				InputKinds: mc.InputKinds,
				OutputKind: "V",
				Info:       info,
			})
		}
	}
	return entries
}

// Registry returns the full reconstructed operator space, deterministically
// ordered.
func Registry() []RegistryEntry {
	var all []RegistryEntry
	all = append(all, messageCreations()...)
	all = append(all, messageAggregations()...)
	all = append(all, fusedAggregations()...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Class != all[j].Class {
			return all[i].Class < all[j].Class
		}
		return all[i].DGLName < all[j].DGLName
	})
	return all
}

// CensusRow is one column of the paper's Table 2.
type CensusRow struct {
	Class      Class
	InputKinds string
	OutputKind string
	Count      int
}

// Census computes the Table 2 classification counts from the registry.
func Census() []CensusRow {
	counts := map[[3]string]int{}
	for _, e := range Registry() {
		counts[[3]string{e.Class.String(), e.InputKinds, e.OutputKind}]++
	}
	var rows []CensusRow
	for key, c := range counts {
		var cls Class
		switch key[0] {
		case MessageCreation.String():
			cls = MessageCreation
		case MessageAggregation.String():
			cls = MessageAggregation
		default:
			cls = FusedAggregation
		}
		rows = append(rows, CensusRow{Class: cls, InputKinds: key[1], OutputKind: key[2], Count: c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Class != rows[j].Class {
			return rows[i].Class < rows[j].Class
		}
		return rows[i].InputKinds < rows[j].InputKinds
	})
	return rows
}

// Lookup finds a registry entry by DGL name.
func Lookup(dglName string) (RegistryEntry, bool) {
	for _, e := range Registry() {
		if e.DGLName == dglName {
			return e, true
		}
	}
	return RegistryEntry{}, false
}

// Named operators used throughout the paper's experiments.
var (
	// AggrSum is the unweighted aggregation-sum of Fig. 4 (SageSum):
	// copy source features, reduce by sum.
	AggrSum = OpInfo{Name: "aggr_sum", EdgeOp: CopyLHS, GatherOp: GatherSum,
		AKind: tensor.SrcV, BKind: tensor.Null, CKind: tensor.DstV}
	// AggrMax is SageMax's unweighted-aggr-max.
	AggrMax = OpInfo{Name: "aggr_max", EdgeOp: CopyLHS, GatherOp: GatherMax,
		AKind: tensor.SrcV, BKind: tensor.Null, CKind: tensor.DstV}
	// AggrMean is SageMean's aggregator.
	AggrMean = OpInfo{Name: "aggr_mean", EdgeOp: CopyLHS, GatherOp: GatherMean,
		AKind: tensor.SrcV, BKind: tensor.Null, CKind: tensor.DstV}
	// WeightedAggrSum is GCN/GAT's u_mul_e.sum: multiply source features by
	// edge weights, reduce by sum (the paper's §2.2 "weighted-aggr-sum").
	WeightedAggrSum = OpInfo{Name: "weighted_aggr_sum", EdgeOp: EdgeMul, GatherOp: GatherSum,
		AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.DstV}
	// UAddV is GAT's first message-creation operator: per-edge sum of source
	// and destination attention terms.
	UAddV = OpInfo{Name: "u_add_v", EdgeOp: EdgeAdd, GatherOp: GatherCopyRHS,
		AKind: tensor.SrcV, BKind: tensor.DstV, CKind: tensor.EdgeK}
	// CopyU materialises source features onto edges (message creation).
	//lint:allow unread -- core's kernel and source tests and analysis' verifier tests build their message-creation plans from it
	CopyU = OpInfo{Name: "copy_u", EdgeOp: CopyLHS, GatherOp: GatherCopyRHS,
		AKind: tensor.SrcV, BKind: tensor.Null, CKind: tensor.EdgeK}
	// CopyESum is the pure message aggregation copy_e.sum.
	CopyESum = OpInfo{Name: "copy_e.sum", EdgeOp: CopyRHS, GatherOp: GatherSum,
		AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV}
	// EDivV normalises edge values by a destination-vertex scalar (GAT's
	// softmax division).
	//lint:allow unread -- core's execution-equivalence table runs it
	EDivV = OpInfo{Name: "e_div_v", EdgeOp: EdgeDiv, GatherOp: GatherCopyRHS,
		AKind: tensor.EdgeK, BKind: tensor.DstV, CKind: tensor.EdgeK}
)
