package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/graph"
)

// This file defines the execution-backend abstraction: the split between
// *lowering* a compiled Plan onto an execution substrate and *running* the
// lowered kernel. The Plan layer (core.go) is the paper's code generator —
// operator semantics plus schedule analyses — while an ExecBackend is one
// way of actually carrying the computation out: the sequential reference
// interpreter, the parallel host backend, or the fallback ladder over them.
// Decoupling the two mirrors the paper's own thesis (computation vs
// schedule, §3-§5) one level down: one abstraction, many substrates.

// CompiledKernel is a Plan lowered for one backend, graph and operand
// binding. Lowering validates the operands once; Run may then be invoked
// repeatedly (e.g. per training epoch) without re-validation. Run writes
// the output into the C operand bound at lowering time. A CompiledKernel
// is not safe for concurrent Run calls.
type CompiledKernel interface {
	// Plan returns the plan this kernel was lowered from.
	Plan() *Plan
	// Run executes the kernel once, writing into the bound output tensor.
	// A panic inside the kernel is recovered into a *KernelError; with the
	// CheckNumerics guard on, a NaN/Inf output fails with a *NumericError.
	Run() error
	// RunCtx is Run with cancellation: the parallel backend's workers check
	// ctx at chunk-claim granularity and return context.Canceled /
	// context.DeadlineExceeded promptly; sequential backends check at run
	// boundaries. After a cancelled run the output tensor holds partial
	// data, but the kernel remains reusable — every Run re-initialises its
	// output, so the next call produces a complete result.
	RunCtx(ctx context.Context) error
	// Counters describes how the kernel was lowered.
	Counters() Counters
}

// Counters describe a kernel's lowering: how many goroutines it runs on and
// how it walks the graph. How often it ran is the kernel site's record
// (ugrapher_kernel_runs_total).
type Counters struct {
	// Workers is the backend's configured worker count (1 for sequential
	// backends).
	Workers int
	// Fanout is how many goroutines each Run deals the kernel's chunks to:
	// Workers for a kernel above the small-work threshold, 1 (or 0, for
	// sequential backends) when the kernel runs inline on the caller.
	Fanout int
	// Walk says how the host kernel traverses the graph: WalkRows or
	// WalkEdgeChunks for the parallel backend ("" for sequential backends).
	// It is a property of the host lowering, not of the plan's GPU strategy:
	// a TE_* or WE_* aggregation still reads WalkRows here.
	Walk string
	// Epilogue says where a fused region's output epilogue runs:
	// EpilogueInChunk, EpilogueAfter, or "" when the kernel has none.
	Epilogue string
	// InteriorStages and SlabFloats describe a row-resident region's head: how
	// many stages run inside its row chunks, and the float32 elements of slab
	// storage, all participants together, that hold their values. Zero for
	// every other kernel.
	InteriorStages, SlabFloats int
}

// The values of Counters.Walk and Counters.Epilogue.
const (
	// WalkRows: destination rows dealt in chunks, one owner per row, each
	// row's in-edge list reduced by one span-kernel call.
	WalkRows = "row-walk"
	// WalkEdgeChunks: the edge range dealt in chunks, one output row per edge.
	WalkEdgeChunks = "edge-chunks"
	// EpilogueInChunk: applied to rows [lo, hi) by the chunk body that just
	// produced them.
	EpilogueInChunk = "in-chunk"
	// EpilogueAfter: a separate stage over the whole output after the kernel.
	EpilogueAfter = "after"
)

// RowEpilogue applies a fused region's elementwise output chain to output
// rows [lo, hi) in place. It is called from pool goroutines on disjoint row
// ranges and must not allocate.
type RowEpilogue func(lo, hi int)

// EpilogueBinder is implemented by lowered kernels whose chunk bodies can
// apply a region's output epilogue to the rows they just produced, while
// those rows are still in cache and on whichever goroutine produced them.
// The program compiler binds through it when it can and otherwise composes
// the epilogue as a stage after the kernel (ComposeRegion).
type EpilogueBinder interface {
	// BindEpilogue installs f; it reports false when the kernel cannot
	// honour it and f must run as a stage instead. Call before the first Run.
	BindEpilogue(f RowEpilogue) bool
}

// epilogueMode is the Counters.Epilogue value of a kernel's bound epilogue.
func epilogueMode(f RowEpilogue) string {
	if f != nil {
		return EpilogueInChunk
	}
	return ""
}

// ExecBackend lowers plans into runnable kernels. Implementations:
// the sequential reference interpreter ("reference"), the multi-core host
// executor ("parallel"), and the fallback ladder from the latter onto the
// former ("resilient").
type ExecBackend interface {
	// Name identifies the backend ("reference", "parallel", "resilient").
	Name() string
	// Lower specializes p for graph g and operand binding o, validating the
	// operands against the plan exactly once.
	Lower(p *Plan, g *graph.Graph, o Operands) (CompiledKernel, error)
}

// BackendNames lists the selectable backend names in presentation order.
var BackendNames = []string{"parallel", "resilient", "reference"}

// Backend resolves a backend by name. Workers are GOMAXPROCS.
func Backend(name string) (ExecBackend, error) {
	switch name {
	case "parallel":
		return NewParallelBackend(0), nil
	case "resilient":
		return NewResilientBackend(NewParallelBackend(0)), nil
	case "reference":
		return ReferenceBackend(), nil
	default:
		return nil, fmt.Errorf("core: unknown backend %q (valid backends: %s)",
			name, strings.Join(BackendNames, ", "))
	}
}

// MaxWorkers bounds the worker-pool size a single process may configure.
// Far above any host this runs on; it exists so a typo ("10000000") fails
// fast instead of spawning a pathological goroutine count.
const MaxWorkers = 4096

// ExecuteOn is the convenience path compile-once callers use: lower p onto
// backend b for (g, o) and run the kernel once.
func (p *Plan) ExecuteOn(b ExecBackend, g *graph.Graph, o Operands) error {
	return p.ExecuteOnCtx(context.Background(), b, g, o)
}

// ExecuteOnCtx is ExecuteOn with cancellation/deadline support.
func (p *Plan) ExecuteOnCtx(ctx context.Context, b ExecBackend, g *graph.Graph, o Operands) error {
	k, err := b.Lower(p, g, o)
	if err != nil {
		return err
	}
	return k.RunCtx(ctx)
}
