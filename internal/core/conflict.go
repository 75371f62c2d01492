package core

import (
	"repro/internal/analysis"
	"repro/internal/tensor"
)

// ConflictReporter is implemented by lowered kernels that can declare which
// write-conflict discipline their Run path uses, so the static verifier
// (internal/analysis) can cross-check the backend's actual lowering against
// the re-derived atomic-need analysis instead of trusting the plan bit.
// The vocabulary is the analysis.Conflict* constants.
type ConflictReporter interface {
	// ConflictHandling names the discipline the lowered Run path uses.
	ConflictHandling() string
}

// ConflictHandling implements ConflictReporter: the reference interpreter
// walks edges on a single goroutine, so there is never a second writer.
func (k *refKernel) ConflictHandling() string { return analysis.ConflictSequential }

// ConflictHandling implements ConflictReporter, naming the walk that
// actually runs rather than the plan's GPU strategy: message creation writes
// per-edge rows, and every aggregation — vertex- or edge-parallel on the GPU,
// flat or sharded — walks destination rows with one owning worker per row
// (a shard's owner is the participant that claimed the shard).
func (k *parallelKernel) ConflictHandling() string {
	if k.p.Op.CKind == tensor.EdgeK {
		return analysis.ConflictPerEdgeRows
	}
	return analysis.ConflictOwnerPerRow
}

// ConflictHandling implements ConflictReporter by delegating to the primary
// kernel; the fallback path re-lowers on the reference backend, which is
// sequential and therefore never less safe.
func (k *resilientKernel) ConflictHandling() string {
	if cr, ok := k.primary.(ConflictReporter); ok {
		return cr.ConflictHandling()
	}
	return analysis.ConflictSequential
}

// ConflictHandling implements ConflictReporter with the head kernel's
// discipline: the stages before it are whole kernels of the same backend, run
// one after another.
func (k *unfusedKernel) ConflictHandling() string {
	if cr, ok := k.head.(ConflictReporter); ok {
		return cr.ConflictHandling()
	}
	return ""
}
