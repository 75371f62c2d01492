package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// The model host: one goroutine per model owns that model's compiled program
// and is the only goroutine that ever runs it. The program is compiled on a
// core.ResilientBackend, whose fallback ladder reruns a failing kernel of a
// full pass on the reference interpreter. A CompiledProgram shares one arena
// across runs and is not safe for concurrent use (program.ErrConcurrentRun
// makes that loud); serializing through a single worker is what makes the rest
// of the layer — the ladder's fallback count, fault handling, the rows a
// response copies out of the arena — free of locks on the execution path. Each
// request is its own forward pass over its own rows' closure (DESIGN.md §15):
// at a few hundredths of a millisecond per pass, coalescing requests would
// save only a call's overhead (EXPERIMENTS.md "One request, one forward
// pass").

// warmupFor is how long a model's worker runs its program on the stored
// features before the daemon reports ready. The passes leave the arena
// resident and the pool's helpers spawned, but the length is set by the
// machine, not the model: a process whose threads have not yet been busy on
// every CPU for about a second is, on the two-vCPU hosts this was measured on,
// liable to have all of them — and its clients' — scheduled on one CPU while
// the others idle, which adds more than half to a lightly loaded daemon's p90
// (EXPERIMENTS.md "One program per served model" has the duration sweep:
// 0.4 s was not enough). The simulator grid search this start-up no longer
// runs used to do the job by accident. A variable only so the in-process
// tests, which measure no latency, can shorten it.
var warmupFor = time.Second

// request is one admitted inference request, queued for the host worker.
type request struct {
	vertices []int
	features *tensor.Dense // optional caller-supplied input (nil: the stored matrix)
	deadline time.Time     // server-enforced; the forward pass's context carries it
	resp     chan response // buffered(1): the worker never blocks on a slow client

	// Trace identity and the enqueue stamp (span-clock ns), set at admission
	// while telemetry is enabled; ts nil means untraced.
	ts       *telemetry.TraceState
	rootSpan uint64
	enqueued int64
}

// response is what the worker delivers back to the handler.
type response struct {
	logits   [][]float32
	degraded bool // a kernel of the request's passes fell back to the reference
	err      error
	// Forward-pass stamps (span-clock ns) for stage attribution; zero when
	// untraced.
	runStart int64
	runEnd   int64
}

// modelHost owns one model's queue and program.
type modelHost struct {
	name  string
	queue chan *request

	prog        *program.CompiledProgram
	resilient   *core.ResilientBackend // prog's backend: the fallback counts
	compileTime time.Duration

	features *tensor.Dense // stored feature matrix (seed 42, as cmd/ugrapher)
	rows     []int32       // the request's vertices as row ids; worker-only scratch

	m    hostMetrics
	warm chan struct{} // closed when the worker has warmed the program up
	done chan struct{} // closed when the worker exits
}

// run is the worker: warm the program up, then loop — take one request, run
// its forward pass, deliver. Exits when the queue is closed and drained.
func (h *modelHost) run() {
	defer close(h.done)
	for start := time.Now(); time.Since(start) < warmupFor; {
		// A pass that fails or falls back (an armed fault) warms up as well;
		// warming up only needs the passes to run.
		_, _ = h.prog.Run(h.features)
	}
	close(h.warm)
	for r := range h.queue {
		// QueueStall models a stalled worker (e.g. a scheduling hiccup
		// before the pass); armed only by tests and -faults.
		faultinject.MaybeSleep(faultinject.QueueStall)
		h.forward(r)
	}
}

// forward runs one request's forward pass and delivers its rows.
//
// The pass computes what the request asked for: the program runs the
// request's vertices as a row set (program.RunRows, DESIGN.md §15) — the exact
// in-closure of those rows, on stored and caller-supplied features alike — or
// the whole graph when the program itself finds the closure past the
// crossover; the rows delivered are bit-identical either way. This worker owns
// the contract that makes that safe: only the requested rows of the
// arena-resident output are valid, and only until the next run, and
// extractRows copies exactly those rows before the next pass starts.
//
// A row run never ladders: its inputs hold the closure's rows and nothing
// else, which the ladder's whole-tensor reference rung cannot run on. So a row
// run that fails with a *core.KernelError is answered once more by a full
// pass, where each failing kernel reruns on the reference interpreter. The
// response is degraded when the request's passes moved the ladder's fallback
// count; only this worker runs the program, so whatever moved it was this
// request. A *core.NumericError, the deadline and cancellation would fail a
// second pass the same way and are not retried.
//
// The pass's context carries the request's deadline, so the kernels stop once
// nobody is waiting; the handler watches the same deadline on its own timer
// and answers 504 without waiting for the pass. Delivery never blocks: the
// response channel is buffered, so a slow or departed client cannot wedge the
// worker.
func (h *modelHost) forward(r *request) {
	ctx, cancel := context.WithDeadline(context.Background(), r.deadline)
	defer cancel()
	x := h.features
	if r.features != nil {
		x = r.features
	}
	h.rows = h.rows[:0]
	for _, v := range r.vertices {
		h.rows = append(h.rows, int32(v))
	}
	var runStart, runEnd int64
	if r.ts != nil {
		ctx = telemetry.ContextWithTrace(ctx, r.ts)
		runStart = telemetry.Now()
	}
	fallbacks := h.resilient.Fallbacks()
	out, err := h.pass(ctx, r, x, false)
	var ke *core.KernelError
	if errors.As(err, &ke) {
		out, err = h.pass(ctx, r, x, true)
	}
	degraded := err == nil && h.resilient.Fallbacks() != fallbacks
	if degraded {
		h.m.degraded.Inc()
	}

	if r.ts != nil {
		// Stage attribution on the request's own tree: queue_wait runs from
		// the enqueue to the start of the first pass, kernel is the passes.
		runEnd = telemetry.Now()
		telemetry.RecordSpan(r.ts, "serve", "stage", "queue_wait", r.enqueued, runStart, r.rootSpan)
		telemetry.RecordSpan(r.ts, "serve", "stage", "kernel", runStart, runEnd, r.rootSpan)
		h.m.stageQueueWait.Observe(runStart - r.enqueued)
		h.m.stageKernel.Observe(runEnd - runStart)
	}
	resp := response{degraded: degraded, err: err, runStart: runStart, runEnd: runEnd}
	if err == nil {
		resp.logits = extractRows(out, r.vertices)
	}
	r.resp <- resp
}

// pass runs one forward pass, the request's row set or, with full, the whole
// graph, under its own forward span in the request's tree (and the program
// run, steps and kernels below it).
func (h *modelHost) pass(ctx context.Context, r *request, x *tensor.Dense, full bool) (*tensor.Dense, error) {
	label := "primary"
	if full {
		label = "degraded"
	}
	h.m.batches.Inc()
	sp := telemetry.StartTraceSpan(r.ts, "serve", "forward", h.name+"/"+label)
	prev := sp.MakeCurrent()
	var (
		out *tensor.Dense
		err error
		fwd = program.RowRun{RowsIn: x.Rows}
	)
	if full {
		out, err = h.prog.RunCtx(ctx, x)
	} else {
		out, fwd, err = h.prog.RunRows(ctx, x, h.rows)
	}
	sp.RestoreCurrent(prev)
	if err != nil {
		sp.EndErr(err.Error())
		return nil, err
	}
	sp.EndArgs(map[string]string{
		"mode": fwd.Mode(), "rows_out": strconv.Itoa(fwd.RowsOut),
		"rows_in": strconv.Itoa(fwd.RowsIn), "edges": strconv.Itoa(fwd.Edges),
	})
	if fwd.Rows {
		h.m.forwardRows.Inc()
	} else {
		h.m.forwardFull.Inc()
	}
	h.m.closureRows.ObserveValue(float64(fwd.RowsIn))
	return out, nil
}

// extractRows copies the requested vertex rows out of the arena-resident
// output, which the next pass overwrites.
func extractRows(out *tensor.Dense, vertices []int) [][]float32 {
	rows := make([][]float32, len(vertices))
	for i, v := range vertices {
		row := make([]float32, out.Cols)
		copy(row, out.Data[v*out.Cols:(v+1)*out.Cols])
		rows[i] = row
	}
	return rows
}

// validate checks a request's vertices against the graph.
func (h *modelHost) validate(vertices []int, numVertices int) error {
	if len(vertices) == 0 {
		return fmt.Errorf("request needs at least one vertex id")
	}
	for _, v := range vertices {
		if v < 0 || v >= numVertices {
			return fmt.Errorf("vertex %d out of range [0, %d)", v, numVertices)
		}
	}
	return nil
}
