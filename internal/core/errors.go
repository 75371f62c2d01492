package core

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/tensor"
)

// The execution layer's error taxonomy (DESIGN.md §7 "Failure model"):
//
//   - validation errors: plain errors returned before any compute runs
//     (operand kinds/shapes at Lower, graph invariants at construction);
//   - *KernelError: a kernel panicked mid-run — the panic is recovered at
//     the worker or Run boundary and converted into this typed error, so one
//     bad kernel fails its request instead of the process. Recoverable: the
//     fallback ladder (ResilientBackend) retries the same lowered plan on
//     the reference backend;
//   - *NumericError: the opt-in CheckNumerics guard found a NaN/Inf in a
//     graph operator's output, named after the offending op. Not retried —
//     a numeric fault is a data/model property, not a backend one;
//   - context.Canceled / context.DeadlineExceeded: the caller's context
//     fired; workers stop at chunk-claim granularity and the partial output
//     is discarded by convention (every Run re-initialises its output).

// KernelError reports a panic recovered inside a kernel execution, carrying
// enough identity (op, strategy, backend, stack) to triage one bad kernel
// out of a model with dozens.
type KernelError struct {
	// Op is the operator label ("u_mul_e.sum", or the layer-qualified name
	// compiled programs assign).
	Op string
	// Strategy is the schedule the kernel was compiled with.
	Strategy string
	// Backend names the execution backend the panic happened on.
	Backend string
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
	// Err is the recovered panic value as an error.
	Err error
}

// Error implements error.
func (e *KernelError) Error() string {
	return fmt.Sprintf("core: kernel %s [%s] on %s backend: %v", e.Op, e.Strategy, e.Backend, e.Err)
}

// Unwrap exposes the recovered panic value for errors.Is/As.
func (e *KernelError) Unwrap() error { return e.Err }

// opLabel names a plan's operator for error messages.
func opLabel(p *Plan) string {
	if p.Op.Name != "" {
		return p.Op.Name
	}
	return p.Op.String()
}

// recoveredError converts a recovered panic value into an error.
func recoveredError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("panic: %v", r)
}

// newKernelError wraps a recovered panic value (with the stack captured at
// the recovery site) into a *KernelError for plan p on the named backend.
func newKernelError(p *Plan, backend string, r any, stack []byte) *KernelError {
	return &KernelError{
		Op:       opLabel(p),
		Strategy: p.Schedule.String(),
		Backend:  backend,
		Stack:    stack,
		Err:      recoveredError(r),
	}
}

// captureStack snapshots the current goroutine's stack. Called inside a
// deferred recover, the trace still contains the panicking frames.
func captureStack() []byte {
	buf := make([]byte, 16<<10)
	return buf[:runtime.Stack(buf, false)]
}

// NumericError reports the first non-finite value the CheckNumerics guard
// found in a graph operator's output.
type NumericError struct {
	// Op is the operator whose output carried the value.
	Op string
	// Index is the flat element index of the first offender.
	Index int
	// Value is the offending value (NaN or ±Inf).
	Value float32
}

// Error implements error.
func (e *NumericError) Error() string {
	kind := "Inf"
	if e.Value != e.Value {
		kind = "NaN"
	}
	return fmt.Sprintf("core: numeric guard: op %s produced %s at output element %d", e.Op, kind, e.Index)
}

// checkNumericsOn is the process-wide opt-in numeric guard switch. Off by
// default: the scan costs one pass over each graph op's output.
var checkNumericsOn atomic.Bool

// SetCheckNumerics toggles the opt-in numeric guard: when on, every graph
// kernel Run scans its output for NaN/Inf and fails with a *NumericError
// naming the first offending op. CLIs expose it as -check-numerics.
func SetCheckNumerics(on bool) { checkNumericsOn.Store(on) }

// CheckNumerics reports whether the numeric guard is on.
func CheckNumerics() bool { return checkNumericsOn.Load() }

// scanNumerics returns a *NumericError for the first NaN/Inf in out, or nil.
func scanNumerics(op string, out *tensor.Dense) error { return scanNumericsAt(op, out.Data, 0) }

// scanNumericsAt scans data, which starts at flat element index base of the
// operator's output.
func scanNumericsAt(op string, data []float32, base int) error {
	for i, v := range data {
		if v != v || math.IsInf(float64(v), 0) {
			return &NumericError{Op: op, Index: base + i, Value: v}
		}
	}
	return nil
}

// finishRun applies the post-compute guards shared by the host kernels: the
// NaN-poke injection point (tests poison outputs through it to prove the
// scan catches real poison) and the opt-in numeric scan. With no faults
// armed and the guard off this is two atomic loads.
func finishRun(p *Plan, out *tensor.Dense) error {
	if faultinject.Fire(faultinject.NaNPoke) && len(out.Data) > 0 {
		out.Data[0] = float32(math.NaN())
	}
	if checkNumericsOn.Load() {
		return scanNumerics(opLabel(p), out)
	}
	return nil
}
