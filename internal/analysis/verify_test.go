package analysis

import (
	"errors"
	"testing"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// Plan-level fixtures. Each case corrupts one aspect of a known-legal plan
// and asserts the matching rule fires. The program-level rules' tests live
// beside those rules in internal/program (verify_rules_test.go).

// aggrSum is the canonical fused aggregation copy_lhs->sum->Dst_V.
var aggrSum = ops.OpInfo{Name: "aggr_sum", EdgeOp: ops.CopyLHS, GatherOp: ops.GatherSum,
	AKind: tensor.SrcV, BKind: tensor.Null, CKind: tensor.DstV}

// wantRule asserts err is a *VerifyError containing rule.
func wantRule(t *testing.T, err error, rule string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want %s violation, verifier was silent", rule)
	}
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VerifyError, got %T: %v", err, err)
	}
	if !ve.HasRule(rule) {
		t.Fatalf("want rule %s, got: %v", rule, ve.Diags)
	}
}

func TestVerifyPlan(t *testing.T) {
	t.Run("vertex-parallel aggregation needs no atomics", func(t *testing.T) {
		err := VerifyPlan(PlanFacts{Op: aggrSum, Schedule: "TV", VertexParallel: true, NeedsAtomic: false})
		if err != nil {
			t.Fatalf("legal plan rejected: %v", err)
		}
	})
	t.Run("edge-parallel aggregation needs atomics", func(t *testing.T) {
		err := VerifyPlan(PlanFacts{Op: aggrSum, Schedule: "TE", VertexParallel: false, NeedsAtomic: true})
		if err != nil {
			t.Fatalf("legal plan rejected: %v", err)
		}
	})
	t.Run("missing atomic bit", func(t *testing.T) {
		err := VerifyPlan(PlanFacts{Op: aggrSum, Schedule: "TE", VertexParallel: false, NeedsAtomic: false})
		wantRule(t, err, RuleWriteConflict)
	})
	t.Run("spurious atomic bit", func(t *testing.T) {
		err := VerifyPlan(PlanFacts{Op: aggrSum, Schedule: "TV", VertexParallel: true, NeedsAtomic: true})
		wantRule(t, err, RuleWriteConflict)
	})
	t.Run("illegal descriptor", func(t *testing.T) {
		op := aggrSum
		op.CKind = tensor.SrcV
		err := VerifyPlan(PlanFacts{Op: op, Schedule: "TV", VertexParallel: true, NeedsAtomic: false})
		wantRule(t, err, RuleOperandType)
	})
}

func TestVerifyLowering(t *testing.T) {
	cases := []struct {
		name     string
		op       ops.OpInfo
		vp       bool
		handling string
		ok       bool
	}{
		{"sequential always safe", aggrSum, false, ConflictSequential, true},
		{"per-edge-rows for edge output", ops.CopyU, false, ConflictPerEdgeRows, true},
		{"per-edge-rows for vertex output races", aggrSum, false, ConflictPerEdgeRows, false},
		{"owner-per-row under vertex-parallel", aggrSum, true, ConflictOwnerPerRow, true},
		{"owner-per-row under an edge-parallel plan", aggrSum, false, ConflictOwnerPerRow, true},
		{"owner-per-row for edge output rejected", ops.CopyU, false, ConflictOwnerPerRow, false},
		{"atomic for aggregation", aggrSum, false, ConflictAtomic, true},
		{"unknown discipline rejected", aggrSum, false, "wishful-thinking", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := VerifyLowering(PlanFacts{Op: tc.op, Schedule: "s", VertexParallel: tc.vp}, tc.handling)
			if tc.ok && err != nil {
				t.Fatalf("safe lowering rejected: %v", err)
			}
			if !tc.ok {
				wantRule(t, err, RuleWriteConflict)
			}
		})
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: RuleBufferAlias, Node: "relu", Msg: "overlap", Hint: "split slots"}
	if got, want := d.String(), "buffer-alias: relu: overlap (split slots)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	e := &VerifyError{Diags: []Diagnostic{d}}
	if !e.HasRule(RuleBufferAlias) || e.HasRule(RuleInPlace) {
		t.Errorf("HasRule misreports")
	}
}
