// Package analysis is the static-analysis layer of the reproduction: an
// independent checker that proves each compiled program and plan safe
// *before* execution, plus a stdlib go/ast-based source linter that
// mechanically enforces the repo's hand-maintained invariants (hook
// discipline, panic justification, allocation-free Run paths).
//
// The verifier half re-derives the two code-generator analyses the paper's
// codegen relies on — the NULL-op fusion pass and the atomic-need analysis
// (§5.2, Table 4) — from first principles and cross-checks them against
// what internal/program and the backends actually produced. It deliberately
// shares no code with the passes it checks: a bug in fuse.go or in the
// buffer planner cannot also hide in the checker. The linter half
// (lint.go) parses the repo's own source and enforces the invariants
// DESIGN.md states in prose, so they cannot rot silently.
//
// The package sits below internal/core and internal/program in the import
// graph (it depends only on ops, tensor and the standard library), so both
// can call into it mandatorily at compile time.
package analysis

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Rule identifiers. Every Diagnostic carries exactly one of these, and the
// fault-injection suite proves each one fires on a corrupted artifact.
const (
	// RuleOperandType: a graph operator's operand typing violates Table 4 —
	// the tensor's row class does not match its addressing kind, an operand
	// is missing/extra for the edge op, the output kind is illegal for the
	// gather op, or an operand width neither matches the output nor
	// broadcasts.
	RuleOperandType = "operand-type"
	// RuleSSAForm: the program DAG is malformed — a value defined twice,
	// read before definition, or an out-of-range value reference.
	RuleSSAForm = "ssa-form"
	// RuleWriteConflict: the plan's atomic-need bit (or the backend's
	// declared conflict handling) disagrees with the independently
	// re-derived (gather_op x strategy) conflict analysis.
	RuleWriteConflict = "write-conflict"
	// RuleFusionPair: a node marked as fused does not correspond to a legal
	// materialise+scatter pair of the pre-fusion program.
	RuleFusionPair = "fusion-pair"
	// RuleFusionSingleConsumer: fusion merged across an intermediate edge
	// tensor that had more than one consumer (or was the program output).
	RuleFusionSingleConsumer = "fusion-single-consumer"
	// RuleDCESoundness: a node that is live in the pre-fusion program is
	// missing from the compiled program without being folded into a fused
	// pair, or a surviving node reads a value no surviving node defines.
	RuleDCESoundness = "dce-soundness"
	// RuleFusionRegion: a fusion region does not decompose back into the
	// pre-fusion program — its absorbed pre/post chains do not match
	// recorded elementwise nodes, an erased interior value had more than
	// one consumer (the read-after-scatter case generalised to regions), or
	// the region's base operator disagrees with the recorded graph node.
	RuleFusionRegion = "fusion-region"
	// RuleFusionRegionCost: a region's claimed saved-traffic bytes are
	// negative or exceed the independently recomputed upper bound for the
	// nodes it absorbed — the cost model's accounting is corrupt.
	RuleFusionRegionCost = "fusion-region-cost"
	// RuleDenseEpilogue: a GEMM or add-scaled node carries an absorbed
	// elementwise chain that does not peel back through recorded unary nodes
	// to the recorded node's value, or an erased interior value had another
	// reader. A legal absorption is bit-identical to the recorded program.
	RuleDenseEpilogue = "dense-epilogue"
	// RuleSplitGemm: a GEMM with a second (operand, weight) pair is not the
	// recorded gemm(concat(x, y), W) — the operands are not the concat's, the
	// concat had another reader, or the weights are not rows [0, Fx) and
	// [Fx, Fx+Fy) of W. A legal split continues each element's ascending-k
	// add chain across the halves, so it is bit-identical to the recorded
	// GEMM.
	RuleSplitGemm = "split-gemm"
	// RuleAggregateCommute: a gather moved behind the projection of its
	// input is not the recorded aggr feeding gemm(concat(x, aggr(h)), W) as
	// aggr(h·W[Fx:]) — the gather is not an unweighted sum or mean of a
	// full-width source operand, an elementwise chain sits between it and the
	// GEMM, the recorded aggregate has another reader, or the weight does not
	// narrow it. A legal commutation reassociates the sum: it is equivalent
	// to the recorded program within 1e-4, not bit-identical.
	RuleAggregateCommute = "aggregate-commute"
	// RuleBufferAlias: two values with overlapping live intervals share an
	// arena slot (read-while-write hazard), or a live value has no slot.
	RuleBufferAlias = "buffer-alias"
	// RuleBufferCapacity: a slot is smaller than a value it hosts.
	RuleBufferCapacity = "buffer-capacity"
	// RuleInPlace: a node writes into its operand's slot without being
	// elementwise, or while the operand is still live elsewhere.
	RuleInPlace = "inplace-elementwise"
	// RuleShardNoAlias: two shards both own a vertex (their output regions
	// would alias one row), or a vertex is owned by no shard.
	RuleShardNoAlias = "shard-no-alias"
	// RuleStepDeps: a hazard between two compiled steps — a true, anti or
	// output dependence re-derived from their arena effect intervals — has
	// no matching edge in the step-dependence DAG, or the DAG carries a
	// malformed (backward or out-of-range) edge.
	RuleStepDeps = "step-deps-sound"
	// RuleWaveLegal: the wave schedule is not a topologically ordered
	// partition of the steps, or two steps placed in the same wave share a
	// write-write hazard or a read-write alias — running them concurrently
	// would race.
	RuleWaveLegal = "wave-legal"
	// RuleRowClosure: a compiled step's recorded row transfer — which rows of
	// each operand it reads to write a given set of its output rows — is not
	// the one its operand kinds demand (a Src_V operand carried instead of
	// expanded through the in-edges, a region interior's external operand
	// missing), or a step with no vertex-row transfer is recorded as running
	// row sets. A row-subset run would read rows no step wrote.
	RuleRowClosure = "row-closure"
)

// ProgramRules lists the rules VerifyProgram checks, in report order.
var ProgramRules = []string{
	RuleSSAForm, RuleOperandType,
	RuleFusionPair, RuleFusionSingleConsumer,
	RuleFusionRegion, RuleFusionRegionCost,
	RuleDenseEpilogue, RuleSplitGemm, RuleAggregateCommute, RuleDCESoundness,
	RuleBufferAlias, RuleBufferCapacity, RuleInPlace,
}

// PlanRules lists the rules VerifyPlan / VerifyLowering check.
var PlanRules = []string{RuleOperandType, RuleWriteConflict}

// WaveRules lists the rules VerifyWaves checks, in report order.
var WaveRules = []string{RuleStepDeps, RuleWaveLegal}

// Diagnostic is one verifier finding: which rule, where, and how to fix it.
type Diagnostic struct {
	// Rule is the violated rule id (one of the Rule* constants).
	Rule string
	// Node names the offending operation (step name or operator label).
	Node string
	// Values lists the SSA value ids involved (empty for plan-level rules).
	Values []int
	// Msg states the violation.
	Msg string
	// Hint suggests the likely fix.
	Hint string
}

// String renders "rule: node: msg (hint)".
func (d Diagnostic) String() string {
	var b strings.Builder
	b.WriteString(d.Rule)
	b.WriteString(": ")
	if d.Node != "" {
		b.WriteString(d.Node)
		b.WriteString(": ")
	}
	b.WriteString(d.Msg)
	if d.Hint != "" {
		b.WriteString(" (")
		b.WriteString(d.Hint)
		b.WriteString(")")
	}
	return b.String()
}

// VerifyError is the error program/plan compilation returns when the
// verifier found violations. It wraps the structured diagnostics so callers
// can inspect rule ids instead of parsing messages.
type VerifyError struct {
	Diags []Diagnostic
}

// Error implements error.
func (e *VerifyError) Error() string {
	if len(e.Diags) == 0 {
		return "analysis: verification failed"
	}
	if len(e.Diags) == 1 {
		return "analysis: " + e.Diags[0].String()
	}
	return fmt.Sprintf("analysis: %d violations, first: %s", len(e.Diags), e.Diags[0])
}

// HasRule reports whether any diagnostic violates the given rule.
func (e *VerifyError) HasRule(rule string) bool {
	for _, d := range e.Diags {
		if d.Rule == rule {
			return true
		}
	}
	return false
}

// Report summarises one verification pass for callers that present results
// (ugrapher -verify, ugrapher-lint -ir) rather than just failing.
type Report struct {
	// Subject labels what was verified ("GCN on AR, parallel", ...).
	Subject string
	// RulesChecked lists the rule ids that ran.
	RulesChecked []string
	// Diags holds the violations found (empty = verified).
	Diags []Diagnostic
}

// OK reports whether the pass found no violations.
func (r Report) OK() bool { return len(r.Diags) == 0 }

// Verification counters, surfaced so tooling (ugrapher-bench -json) can
// report whether the artifacts behind a result passed analysis.
var (
	programsVerified atomic.Int64
	plansVerified    atomic.Int64
	shardsVerified   atomic.Int64
	violationsFound  atomic.Int64
)

// VerifyStats is a snapshot of the process-wide verification counters.
type VerifyStats struct {
	// Programs is how many whole-program verifications ran.
	Programs int64
	// Plans is how many plan-level verifications ran.
	Plans int64
	// ShardPlans is how many shard-plan verifications ran.
	ShardPlans int64
	// Violations is how many diagnostics all verifications produced.
	Violations int64
}

// Stats snapshots the verification counters.
func Stats() VerifyStats {
	return VerifyStats{
		Programs:   programsVerified.Load(),
		Plans:      plansVerified.Load(),
		ShardPlans: shardsVerified.Load(),
		Violations: violationsFound.Load(),
	}
}
