package core

import (
	"context"
	"errors"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// Telemetry glue for the execution backends. Each backend creates one
// *telemetry.KernelSite per lowered kernel (compile-time cost only), so the
// per-Run recording path touches no maps and allocates nothing; with
// telemetry disabled a Run pays one atomic load at Begin and one at End.

// kernelSite builds the instrumentation handle one lowered kernel records
// through.
func kernelSite(p *Plan, backendName string, g *graph.Graph) *telemetry.KernelSite {
	//lint:allow hook-discipline -- site registration happens once at Lower time, off the Run hot path
	return telemetry.NewKernelSite(
		opLabel(p), p.Schedule.Strategy.Code(), p.Schedule.String(), backendName, int64(g.NumEdges()))
}

// outcomeOf maps the execution layer's error taxonomy (DESIGN.md §7) onto
// telemetry outcomes.
func outcomeOf(err error) (telemetry.Outcome, string) {
	if err == nil {
		return telemetry.OutcomeOK, ""
	}
	var ke *KernelError
	if errors.As(err, &ke) {
		return telemetry.OutcomeKernelError, err.Error()
	}
	var ne *NumericError
	if errors.As(err, &ne) {
		return telemetry.OutcomeNumericError, err.Error()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return telemetry.OutcomeCancelled, err.Error()
	}
	return telemetry.OutcomeError, err.Error()
}

// lowerSpan opens the compile-time lowering span for one backend. The
// Enabled guard keeps the label concatenation off the disabled path.
func lowerSpan(backendName string, p *Plan) telemetry.Span {
	if !telemetry.Enabled() {
		return telemetry.Span{}
	}
	return telemetry.StartSpan(backendName, "lower", "lower "+opLabel(p))
}

// endLower closes a lowering span with the Lower result.
func endLower(sp telemetry.Span, err error) {
	if err != nil {
		sp.EndErr(err.Error())
		return
	}
	sp.End()
}

// Workers reports b's worker-pool size: the pool size for backends that
// expose one (parallel, resilient-over-parallel), 1 for sequential backends.
func Workers(b ExecBackend) int {
	if w, ok := b.(interface{ Workers() int }); ok {
		return w.Workers()
	}
	return 1
}
