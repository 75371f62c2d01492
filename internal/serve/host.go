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
// core.ResilientBackend whose fallback ladder the breaker switches per batch,
// so the same kernels are the fast path (ladder off) and the degraded path
// (ladder on). A CompiledProgram shares one arena across runs and is not
// safe for concurrent use (program.ErrConcurrentRun makes that loud);
// serializing through a single worker is what makes the rest of the layer —
// batching, breaker bookkeeping, fault handling — free of locks on the
// execution path. Throughput under concurrency comes from batching: requests
// that arrive while a batch is running coalesce into the next one, so N
// queued requests cost one forward pass, not N.

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
	features *tensor.Dense // optional caller-supplied input; runs as a solo batch
	deadline time.Time     // server-enforced; the batch ctx carries the max over members
	resp     chan response // buffered(1): the worker never blocks on a slow client

	// Trace identity and stage stamps (span-clock ns), set at admission
	// while telemetry is enabled; ts nil means untraced. dequeued is
	// written by the worker and read by the handler only after the
	// response channel receive (the channel is the happens-before edge).
	ts       *telemetry.TraceState
	rootSpan uint64
	enqueued int64
	dequeued int64
}

// response is what the worker delivers back to the handler.
type response struct {
	logits   [][]float32
	batched  int  // members in the batch that served this request
	degraded bool // served with the fallback ladder on (breaker open)
	err      error
	// Forward-pass stamps (span-clock ns) for stage attribution; zero when
	// untraced.
	runStart int64
	runEnd   int64
}

// modelHost owns one model's queue, program and breaker.
type modelHost struct {
	name    string
	queue   chan *request
	pending *request // feature-bearing request deferred by collect; worker-only

	prog        *program.CompiledProgram
	resilient   *core.ResilientBackend // prog's backend: the ladder gate and the fallback counts
	compileTime time.Duration

	features *tensor.Dense // stored feature matrix (seed 42, as cmd/ugrapher)
	classes  int
	maxBatch int
	rows     []int32 // the batch members' vertices, concatenated; worker-only scratch

	br   *breaker
	m    hostMetrics
	warm chan struct{} // closed when the worker has warmed the program up
	done chan struct{} // closed when the worker exits
}

// run is the worker: warm the program up, then loop — take one request,
// coalesce what else is queued, execute the batch, deliver. Exits when the
// queue is closed and drained.
func (h *modelHost) run() {
	defer close(h.done)
	for start := time.Now(); time.Since(start) < warmupFor; {
		// A failing pass (an armed fault) is the breaker's to count once
		// requests arrive; warming up only needs the passes to run.
		_, _ = h.prog.Run(h.features)
	}
	close(h.warm)
	for {
		first := h.pending
		h.pending = nil
		if first == nil {
			var ok bool
			first, ok = <-h.queue
			if !ok {
				return
			}
		}
		// QueueStall models a stalled worker (e.g. a scheduling hiccup
		// before batch collection); armed only by tests and -faults.
		faultinject.MaybeSleep(faultinject.QueueStall)
		h.runBatch(h.collect(first))
	}
}

// collect coalesces queued requests behind first into one batch, up to
// maxBatch. Requests carrying their own feature matrix cannot share a
// forward pass with anyone else, so they always run as a batch of one; if
// one shows up mid-collection it is parked in h.pending for the next
// iteration rather than dropped back into the (contended) queue.
func (h *modelHost) collect(first *request) []*request {
	stampDequeue(first)
	batch := []*request{first}
	if first.features != nil {
		return batch
	}
	for len(batch) < h.maxBatch {
		select {
		case r, ok := <-h.queue:
			if !ok {
				return batch
			}
			stampDequeue(r)
			if r.features != nil {
				h.pending = r
				return batch
			}
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// stampDequeue marks the end of a request's queue_wait stage: the moment the
// worker pulled it off the queue. Traced requests only (ts is set iff the
// request was admitted with telemetry enabled).
func stampDequeue(r *request) {
	if r.ts != nil {
		r.dequeued = telemetry.Now()
	}
}

// runBatch executes one coalesced forward pass and distributes the rows.
//
// The pass computes what the batch asked for: the program runs the union of
// the members' vertices as a row set (program.RunRows, DESIGN.md §15) — the
// exact in-closure of those rows, on stored and caller-supplied features
// alike — or the whole graph when the program itself finds the closure past
// the crossover; the rows delivered are bit-identical either way. This worker
// owns the contract that makes that safe: only the requested rows of the
// arena-resident output are valid, and only until the next run, and
// extractRows copies exactly those rows before the next batch starts. While
// the breaker is open the batch takes the full pass, as it always has: the
// ladder's lower rung is a whole-tensor kernel, and the degraded ≡ reference
// proof is about that path.
//
// Deadline propagation: the batch context carries the latest member
// deadline, so the kernels themselves are cut off once nobody is left
// waiting; members with earlier deadlines are answered 504 by their own
// handler (each watches its own timer) without cancelling the batch for
// the rest. Delivery never blocks: response channels are buffered, so one
// slow or departed client cannot wedge the worker.
func (h *modelHost) runBatch(batch []*request) {
	now := time.Now()
	deadline := batch[0].deadline
	for _, r := range batch[1:] {
		if r.deadline.After(deadline) {
			deadline = r.deadline
		}
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	// The breaker's decision is the ladder's gate: off, a kernel failure
	// fails the batch and counts toward the threshold; on (breaker open), the
	// failing kernel reruns on the reference interpreter inside the same run.
	degraded, probe := h.br.route(now)
	h.resilient.SetLadder(degraded)
	label := "primary"
	if degraded {
		label = "degraded"
		h.m.degraded.Inc()
	}
	x := h.features
	if batch[0].features != nil {
		x = batch[0].features
	}

	h.m.batches.Inc()
	h.m.batchSize.ObserveValue(float64(len(batch)))

	// Fan-in linking: the batch span (and the program run, steps and
	// kernels below it) joins the *lead* trace — the first traced member's
	// tree — so one member always owns a fully connected tree. Every other
	// member is linked to the batch span by a flow arrow, so its tree stays
	// navigable across the N-requests-to-1-forward coalescing.
	var lead *telemetry.TraceState
	for _, r := range batch {
		if r.ts != nil {
			lead = r.ts
			break
		}
	}
	sp := telemetry.StartTraceSpan(lead, "serve", "batch", h.name+"/"+label)
	prev := sp.MakeCurrent()
	var runStart, runEnd int64
	if lead != nil {
		for _, r := range batch {
			if r.ts != nil && r.ts != lead {
				telemetry.FlowLink("batch", "coalesced",
					telemetry.FlowPoint{Track: "serve", Ts: r.dequeued, Trace: r.ts.TraceID(), Span: r.rootSpan},
					telemetry.FlowPoint{Track: "serve", Ts: sp.Start(), Trace: lead.TraceID(), Span: sp.SpanID()})
			}
		}
		if degraded {
			// The breaker's routing decision as a zero-length span on the
			// tree: *why* this batch ran degraded.
			telemetry.RecordSpan(lead, "serve", "breaker", "degraded-route", sp.Start(), sp.Start(), sp.SpanID())
		}
		ctx = telemetry.ContextWithTrace(ctx, lead)
		runStart = telemetry.Now()
	}
	var (
		out *tensor.Dense
		err error
		fwd = program.RowRun{RowsIn: x.Rows}
	)
	if degraded {
		out, err = h.prog.RunCtx(ctx, x)
	} else {
		h.rows = h.rows[:0]
		for _, r := range batch {
			for _, v := range r.vertices {
				h.rows = append(h.rows, int32(v))
			}
		}
		out, fwd, err = h.prog.RunRows(ctx, x, h.rows)
	}
	if lead != nil {
		runEnd = telemetry.Now()
	}
	sp.RestoreCurrent(prev)
	if err != nil {
		sp.EndErr(err.Error())
	} else {
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
	}

	if !degraded {
		var ke *core.KernelError
		switch {
		case err == nil:
			h.br.onSuccess(probe)
		case errors.As(err, &ke):
			h.br.onFailure(probe, time.Now())
		default:
			// Deadline/cancellation: says nothing about the kernels' health.
			h.br.onInconclusive(time.Now())
		}
	}

	for _, r := range batch {
		if r.ts != nil {
			// Per-member stage attribution: each member's own tree carries
			// its queue_wait / batch_wait and the shared kernel interval,
			// parented onto that member's root span.
			telemetry.RecordSpan(r.ts, "serve", "stage", "queue_wait", r.enqueued, r.dequeued, r.rootSpan)
			telemetry.RecordSpan(r.ts, "serve", "stage", "batch_wait", r.dequeued, runStart, r.rootSpan)
			telemetry.RecordSpan(r.ts, "serve", "stage", "kernel", runStart, runEnd, r.rootSpan)
			h.m.stageQueueWait.Observe(r.dequeued - r.enqueued)
			h.m.stageBatchWait.Observe(runStart - r.dequeued)
			h.m.stageKernel.Observe(runEnd - runStart)
		}
		if err != nil {
			r.resp <- response{err: err, batched: len(batch), degraded: degraded, runStart: runStart, runEnd: runEnd}
			continue
		}
		r.resp <- response{
			logits:   extractRows(out, r.vertices),
			batched:  len(batch),
			degraded: degraded,
			runStart: runStart,
			runEnd:   runEnd,
		}
	}
}

// extractRows copies the requested vertex rows out of the arena-resident
// output, which the next batch overwrites.
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
