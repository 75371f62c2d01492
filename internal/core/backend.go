package core

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/shard"
)

// This file defines the execution-backend abstraction: the split between
// *lowering* a compiled Plan onto an execution substrate and *running* the
// lowered kernel. The Plan layer (core.go) is the paper's code generator —
// operator semantics plus schedule analyses — while an ExecBackend is one
// way of actually carrying the computation out: the sequential reference
// interpreter, the parallel host backend, or the GPU cycle simulator.
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
	// Counters reports cumulative execution statistics across Run calls.
	Counters() Counters
}

// Counters are the execution statistics a backend accumulates per kernel.
type Counters struct {
	// Runs is how many times Run completed.
	Runs int64
	// Edges is the total number of edges processed across runs.
	Edges int64
	// Shards is the total number of work shards executed (1 per run for
	// sequential backends, one per worker chunk for the parallel backend).
	Shards int64
	// Workers is the backend's configured worker count (1 for sequential
	// backends).
	Workers int
	// Fanout is how many goroutines each Run deals the kernel's chunks to:
	// Workers for a kernel above the small-work threshold, 1 (or 0, for
	// sequential backends) when the kernel runs inline on the caller.
	Fanout int
	// SimCycles is the simulated cycle count of the last run, for backends
	// that model cost (zero for pure host backends).
	SimCycles float64
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
// executor ("parallel"), and the GPU cycle simulator ("sim").
type ExecBackend interface {
	// Name identifies the backend ("reference", "parallel", "sim").
	Name() string
	// Lower specializes p for graph g and operand binding o, validating the
	// operands against the plan exactly once.
	Lower(p *Plan, g *graph.Graph, o Operands) (CompiledKernel, error)
}

// BackendNames lists the selectable backend names in presentation order.
var BackendNames = []string{"parallel", "resilient", "reference", "sim"}

// Backend resolves a backend by name. The empty string resolves to the
// default backend (see DefaultBackend).
func Backend(name string) (ExecBackend, error) {
	switch name {
	case "":
		return DefaultBackend(), nil
	case "reference":
		return ReferenceBackend(), nil
	case "parallel":
		return NewParallelBackend(0), nil
	case "resilient":
		return NewResilientBackend(nil, nil), nil
	case "sim":
		return NewSimBackend(nil), nil
	default:
		return nil, fmt.Errorf("core: unknown backend %q (valid backends: %s)",
			name, strings.Join(BackendNames, ", "))
	}
}

// ValidateEnvBackend checks the UGRAPHER_BACKEND environment variable
// without instantiating the default backend, so CLIs can fail fast at
// startup with the valid names instead of warning mid-run.
func ValidateEnvBackend() error {
	name := os.Getenv("UGRAPHER_BACKEND")
	if name == "" {
		return nil
	}
	if _, err := Backend(name); err != nil {
		return fmt.Errorf("UGRAPHER_BACKEND: %w", err)
	}
	return nil
}

var (
	defaultBackendMu sync.Mutex
	defaultBackendV  ExecBackend
)

// DefaultBackend returns the process-wide default compute backend: the
// parallel host backend, unless the UGRAPHER_BACKEND environment variable
// names another one or SetDefaultBackend overrode it.
func DefaultBackend() ExecBackend {
	defaultBackendMu.Lock()
	defer defaultBackendMu.Unlock()
	if defaultBackendV == nil {
		b, err := backendForDefault(os.Getenv("UGRAPHER_BACKEND"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ugrapher: UGRAPHER_BACKEND: %v (using parallel)\n", err)
			b = NewParallelBackend(0)
		}
		defaultBackendV = b
	}
	return defaultBackendV
}

// backendForDefault is Backend without the empty-name recursion into
// DefaultBackend.
func backendForDefault(name string) (ExecBackend, error) {
	if name == "" {
		return NewParallelBackend(0), nil
	}
	return Backend(name)
}

// SetDefaultBackend overrides the process-wide default compute backend by
// name (CLI -backend flags funnel through this).
func SetDefaultBackend(name string) error {
	b, err := backendForDefault(name)
	if err != nil {
		return err
	}
	defaultBackendMu.Lock()
	defaultBackendV = b
	defaultBackendMu.Unlock()
	return nil
}

// Shard-count plumbing, mirroring the backend selection above: CLI -shards
// flags funnel through SetDefaultShards, UGRAPHER_SHARDS covers headless
// runs, and ValidateEnvShards lets CLIs fail fast at startup. 0 means auto
// (size shards from the cache budget, see shard.AutoShards); 1 disables
// sharding — today's single-CSR execution.

var (
	defaultShardsMu sync.Mutex
	defaultShardsV  = -1 // unresolved: fall through to UGRAPHER_SHARDS
)

// parseShards validates a shard-count string against [0, shard.MaxShards].
func parseShards(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 || n > shard.MaxShards {
		return 0, fmt.Errorf("core: invalid shard count %q (valid: 0 (auto) through %d; 1 = unsharded)",
			s, shard.MaxShards)
	}
	return n, nil
}

// ValidateEnvShards checks the UGRAPHER_SHARDS environment variable so CLIs
// can exit with the valid range at startup instead of warning mid-run.
func ValidateEnvShards() error {
	s := os.Getenv("UGRAPHER_SHARDS")
	if s == "" {
		return nil
	}
	if _, err := parseShards(s); err != nil {
		return fmt.Errorf("UGRAPHER_SHARDS: %w", err)
	}
	return nil
}

// SetDefaultShards overrides the process-wide default shard count and
// resets the cached default backend so the next DefaultBackend() call picks
// the new count up.
func SetDefaultShards(n int) error {
	if n < 0 || n > shard.MaxShards {
		return fmt.Errorf("core: invalid shard count %d (valid: 0 (auto) through %d; 1 = unsharded)",
			n, shard.MaxShards)
	}
	defaultShardsMu.Lock()
	defaultShardsV = n
	defaultShardsMu.Unlock()
	defaultBackendMu.Lock()
	defaultBackendV = nil
	defaultBackendMu.Unlock()
	return nil
}

// DefaultShards resolves the process-wide default shard count: the
// SetDefaultShards override, else UGRAPHER_SHARDS, else 1 (unsharded).
func DefaultShards() int {
	defaultShardsMu.Lock()
	defer defaultShardsMu.Unlock()
	if defaultShardsV >= 0 {
		return defaultShardsV
	}
	if s := os.Getenv("UGRAPHER_SHARDS"); s != "" {
		n, err := parseShards(s)
		if err == nil {
			return n
		}
		fmt.Fprintf(os.Stderr, "ugrapher: UGRAPHER_SHARDS: %v (using 1)\n", err)
	}
	return 1
}

// Worker-count plumbing. The worker pool size has always been settable via
// UGRAPHER_WORKERS; like UGRAPHER_BACKEND and UGRAPHER_SHARDS it is now
// validated at CLI startup (exit 2 with the valid range) instead of being
// silently ignored when malformed mid-run.

// MaxWorkers bounds the worker-pool size a single process may configure.
// Far above any host this runs on; it exists so a typo ("10000000") fails
// fast instead of spawning a pathological goroutine count.
const MaxWorkers = 4096

// parseWorkers validates a worker-count string against [1, MaxWorkers].
func parseWorkers(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 || n > MaxWorkers {
		return 0, fmt.Errorf("core: invalid worker count %q (valid: 1 through %d)", s, MaxWorkers)
	}
	return n, nil
}

// ValidateEnvWorkers checks the UGRAPHER_WORKERS environment variable so
// CLIs can exit with the valid range at startup instead of silently falling
// back to runtime.NumCPU() mid-run.
func ValidateEnvWorkers() error {
	s := os.Getenv("UGRAPHER_WORKERS")
	if s == "" {
		return nil
	}
	if _, err := parseWorkers(s); err != nil {
		return fmt.Errorf("UGRAPHER_WORKERS: %w", err)
	}
	return nil
}

// envWorkers resolves UGRAPHER_WORKERS: 0 when unset, the parsed count when
// valid, and 0 with a stderr warning when malformed (mirrors DefaultShards;
// CLIs that called ValidateEnvWorkers never reach the warning).
func envWorkers() int {
	s := os.Getenv("UGRAPHER_WORKERS")
	if s == "" {
		return 0
	}
	n, err := parseWorkers(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ugrapher: UGRAPHER_WORKERS: %v (using NumCPU)\n", err)
		return 0
	}
	return n
}

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
