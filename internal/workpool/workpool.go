// Package workpool is the one place the execution path starts goroutines: a
// process-lifetime, bounded set of helper goroutines that every parallel
// layer — flat and sharded graph kernels, wave execution, dense row-range
// splitting — dispatches onto. It is a dependency-free leaf (standard
// library only) so core, program and telemetry can all import it.
//
// The model is fork-join over a chunked index range. A submitter owns a
// *Job (allocated once, at kernel-lowering or program-compile time, with its
// chunk body bound) and calls Run; Run offers the job to parked helpers and
// then claims chunks itself, so the submitter is always one of the job's
// participants:
//
//   - progress never depends on a helper being free. If every helper is busy
//     (two programs running at once) or the offer queue is full, the
//     submitter simply executes every chunk itself;
//   - nesting cannot deadlock. A chunk body may submit its own job (a wave
//     step that splits its GEMM): the nested submitter participates in the
//     nested job the same way, and Run only ever waits for participants that
//     are already executing a chunk — never for a queue slot or a free
//     helper — so every wait is on strictly deeper work, which is finite;
//   - the steady state allocates nothing. Offers are value structs on a
//     channel made once, per-run state lives in the reused Job, and helpers
//     are spawned once and park on the channel between jobs (they block, they
//     do not spin, so an idle pool costs no CPU).
//
// Cancellation is checked before every chunk claim; a panic in a chunk body,
// on a helper or on the submitter, stops the job and is returned from Run as
// a *PanicError carrying the panicking goroutine's stack.
package workpool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// MaxHelpers bounds the pool. It is far above any host this runs on; a
// submitter asking for more participants still completes, with fewer
// helpers.
const MaxHelpers = 256

// PanicError is a chunk-body panic recovered by the pool.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured in its recover.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("workpool: chunk panicked: %v", e.Value) }

// Unwrap exposes a panic value that is itself an error to errors.Is/As.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// Job state word: generation in the high 32 bits, a closed flag, and the
// count of helpers currently inside the job in the low 31 bits. A helper
// enters only while the word still carries the generation its offer was
// made under and the job is open, so an offer that outlives its run (the
// submitter finished first) is dropped instead of joining a later run.
const (
	closedBit  = uint64(1) << 31
	activeMask = closedBit - 1
)

// Job is the reusable state of one parallel loop. Allocate it once with
// NewJob and reuse it across runs; a Job must not be submitted by two
// goroutines at once (its owners — a lowered kernel, a compiled step — are
// single-runner already).
type Job struct {
	body func(lo, hi int)

	// Per-run state, written by the submitter before the job is opened.
	items, chunk int
	done         <-chan struct{}
	gen          uint32

	state  atomic.Uint64
	cursor atomic.Int64
	stop   atomic.Bool
	chunks atomic.Int64
	// idle receives one token from the last helper to leave a closed job.
	idle chan struct{}

	mu  sync.Mutex
	err *PanicError
}

// NewJob binds body, which is called with disjoint half-open chunks of the
// submitted index range, possibly from several goroutines at once.
func NewJob(body func(lo, hi int)) *Job {
	return &Job{body: body, idle: make(chan struct{}, 1)}
}

// Stopped reports whether the current run has been cancelled or has
// panicked elsewhere. Long chunk bodies poll it to stop early.
func (j *Job) Stopped() bool {
	if j.stop.Load() {
		return true
	}
	if j.done != nil {
		select {
		case <-j.done:
			j.stop.Store(true)
			return true
		default:
		}
	}
	return false
}

// Chunks reports how many chunks the last run completed.
func (j *Job) Chunks() int64 { return j.chunks.Load() }

// offer asks one helper to join generation gen of job j.
type offer struct {
	j   *Job
	gen uint32
}

var pool = struct {
	// offers is buffered to the pool bound so an offer never blocks the
	// submitter: one slot per helper that could ever pick it up.
	offers chan offer
	// mu serialises growth; helpers is read lock-free on the Run path.
	mu      sync.Mutex
	helpers atomic.Int32

	jobs         atomic.Int64
	callerChunks atomic.Int64
	helperChunks atomic.Int64
}{offers: make(chan offer, MaxHelpers)}

// ensure grows the pool to at least n helpers (bounded by MaxHelpers).
// Helpers are never stopped: they belong to the process.
func ensure(n int) {
	if n > MaxHelpers {
		n = MaxHelpers
	}
	if int(pool.helpers.Load()) >= n {
		return
	}
	pool.mu.Lock()
	for int(pool.helpers.Load()) < n {
		pool.helpers.Add(1)
		//lint:allow goroutine-accounting -- the pool's spawn-once, process-lifetime helper: parked on the offer channel between jobs, and every job waits for the helpers inside it before Run returns
		go helper()
	}
	pool.mu.Unlock()
}

// helper serves offers for the life of the process.
func helper() {
	for o := range pool.offers {
		if o.j.enter(o.gen) {
			pool.helperChunks.Add(o.j.participate())
			o.j.leave()
		}
	}
}

// enter admits a helper into generation gen while the job is open.
func (j *Job) enter(gen uint32) bool {
	for {
		s := j.state.Load()
		if uint32(s>>32) != gen || s&closedBit != 0 {
			return false
		}
		if j.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// leave checks a helper out; the last one out of a closed job wakes the
// submitter.
func (j *Job) leave() {
	if s := j.state.Add(^uint64(0)); s&closedBit != 0 && s&activeMask == 0 {
		j.idle <- struct{}{}
	}
}

// participate claims and runs chunks until the range is exhausted or the
// job stops, returning how many it completed. A panic in the body is
// recorded and stops the job.
func (j *Job) participate() (n int64) {
	defer func() {
		if r := recover(); r != nil {
			j.recordPanic(r)
		}
		j.chunks.Add(n)
	}()
	for !j.Stopped() {
		hi := int(j.cursor.Add(int64(j.chunk)))
		lo := hi - j.chunk
		if lo >= j.items {
			break
		}
		if hi > j.items {
			hi = j.items
		}
		j.body(lo, hi)
		n++
	}
	return n
}

// recordPanic keeps the run's first panic, with the stack of the goroutine
// that raised it, and stops the job.
func (j *Job) recordPanic(r any) {
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	j.mu.Lock()
	if j.err == nil {
		j.err = &PanicError{Value: r, Stack: buf}
	}
	j.mu.Unlock()
	j.stop.Store(true)
}

// Run executes j's body over [0, items) in chunks of the given size on up
// to workers goroutines: the caller plus at most workers-1 pool helpers. It
// returns once every participant has left the job, with the first chunk
// panic as a *PanicError, else ctx.Err().
//
// With workers <= 1 (or a single chunk) Run never touches the pool: the
// body runs on the caller, in one call when ctx cannot be cancelled and
// chunk by chunk — checking ctx between chunks — when it can.
func Run(ctx context.Context, j *Job, items, chunk, workers int) error {
	if items <= 0 {
		return nil
	}
	if chunk < 1 {
		chunk = 1
	}
	j.items, j.chunk, j.done = items, chunk, ctx.Done()
	j.cursor.Store(0)
	j.chunks.Store(0)
	j.stop.Store(false)
	j.err = nil // no participant of an earlier run is left to race this write
	if nchunks := (items + chunk - 1) / chunk; workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 {
		if j.done == nil {
			j.chunk = items
		}
		j.participate()
		return j.result(ctx)
	}

	ensure(workers - 1)
	j.gen++
	gen := j.gen
	j.state.Store(uint64(gen) << 32)
offers:
	for i := 1; i < workers; i++ {
		select {
		case pool.offers <- offer{j: j, gen: gen}:
		default:
			break offers // queue full: the helpers are all spoken for
		}
	}
	pool.jobs.Add(1)
	pool.callerChunks.Add(j.participate())
	for {
		s := j.state.Load()
		if j.state.CompareAndSwap(s, s|closedBit) {
			if s&activeMask != 0 {
				<-j.idle
			}
			break
		}
	}
	return j.result(ctx)
}

// result reports the finished run's outcome.
func (j *Job) result(ctx context.Context) error {
	j.mu.Lock()
	err := j.err
	j.mu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// Stats is a snapshot of the pool's lifetime counters.
type Stats struct {
	// Helpers is how many helper goroutines the pool has spawned.
	Helpers int
	// Jobs counts runs that were offered to the pool (inline runs are not
	// jobs).
	Jobs int64
	// CallerChunks and HelperChunks split those jobs' completed chunks by
	// who ran them: the submitting goroutine or a pool helper.
	CallerChunks, HelperChunks int64
}

// Snapshot reads the pool counters.
func Snapshot() Stats {
	return Stats{
		Helpers:      int(pool.helpers.Load()),
		Jobs:         pool.jobs.Load(),
		CallerChunks: pool.callerChunks.Load(),
		HelperChunks: pool.helperChunks.Load(),
	}
}
