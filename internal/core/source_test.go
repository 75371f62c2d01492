package core

import (
	"strings"
	"testing"

	"repro/internal/ops"
)

// TestGenerateSourceAllRegistryOps: every one of the 160 reconstructed
// operators generates kernel source under every strategy, the source names
// the operator, and atomic stores appear exactly when the plan demands them.
func TestGenerateSourceAllRegistryOps(t *testing.T) {
	for _, e := range ops.Registry() {
		for _, strat := range Strategies {
			p, err := Compile(e.Info, Schedule{Strategy: strat, Group: 2, Tile: 2})
			if err != nil {
				t.Fatalf("%s/%s: %v", e.DGLName, strat, err)
			}
			src := p.GenerateSource()
			if len(src) < 100 {
				t.Fatalf("%s/%s: suspiciously short source", e.DGLName, strat)
			}
			if !strings.Contains(src, "__global__") {
				t.Fatalf("%s/%s: missing kernel declaration", e.DGLName, strat)
			}
			hasAtomicStore := strings.Contains(src, "atomicAdd") ||
				strings.Contains(src, "atomicMax") || strings.Contains(src, "atomicMin")
			if hasAtomicStore != p.NeedsAtomic {
				t.Fatalf("%s/%s: atomic store presence %v != NeedsAtomic %v",
					e.DGLName, strat, hasAtomicStore, p.NeedsAtomic)
			}
			if strings.ContainsAny(sourceKernelName(src), ".- ") {
				t.Fatalf("%s/%s: kernel name not an identifier: %q",
					e.DGLName, strat, sourceKernelName(src))
			}
		}
	}
}

// sourceKernelName extracts the identifier after "__global__ void ".
func sourceKernelName(src string) string {
	const marker = "__global__ void "
	i := strings.Index(src, marker)
	if i < 0 {
		return ""
	}
	rest := src[i+len(marker):]
	j := strings.Index(rest, "(")
	if j < 0 {
		return rest
	}
	return rest[:j]
}

func TestGenerateSourceUnnamedOp(t *testing.T) {
	op := ops.OpInfo{
		EdgeOp: ops.CopyLHS, GatherOp: ops.GatherSum,
		AKind: 1, CKind: 2, // SrcV -> DstV
	}
	src := MustCompile(op, DefaultSchedule).GenerateSource()
	if !strings.Contains(src, "graph_op") {
		t.Error("unnamed operator should use the default kernel name")
	}
}

func TestInstsPerElementMonotonic(t *testing.T) {
	// More operands and heavier ops cost more instructions per element.
	light := MustCompile(ops.AggrSum, DefaultSchedule)         // copy + sum, 1 operand
	heavy := MustCompile(ops.WeightedAggrSum, DefaultSchedule) // mul + sum, 2 operands
	msgc := MustCompile(ops.CopyU, DefaultSchedule)            // copy, plain store
	if heavy.InstsPerElement <= light.InstsPerElement {
		t.Errorf("binary op %v should cost more than copy %v",
			heavy.InstsPerElement, light.InstsPerElement)
	}
	if msgc.NeedsAtomic {
		t.Error("message creation never needs atomics")
	}
}
