package telemetry

// Causal traces (DESIGN.md §8): a TraceState is minted once per request at
// HTTP admission (or adopted from an incoming traceparent / X-Request-ID
// header) and rides through context.Context across every layer. Spans opened
// under a trace carry a 64-bit span id and a parent link; the Chrome exporter
// renders each trace as one async-event tree, so Perfetto shows one connected
// tree per request.
//
// Allocation discipline: the enabled steady-state Run path stays zero-alloc.
// A TraceState is one allocation at admission (span records live in a
// pre-sized slice); propagation mutates TraceState.cur (an atomic) instead of
// deriving child contexts, because program steps execute sequentially within
// a run. The disabled path everywhere remains one atomic load.

import (
	"context"
	"sync"
	"sync/atomic"
)

// spanSeq allocates process-unique span ids. Sequential ids are
// fine: uniqueness within the process is all the exporters need.
var spanSeq atomic.Uint64

func nextSpanID() uint64 { return spanSeq.Add(1) }

// traceSalt decorrelates trace ids across process restarts so two runs'
// traces do not collide when merged in one viewer.
var traceSalt = uint64(epoch.UnixNano()) | 1

// MintTraceID returns a new non-zero 64-bit trace id (splitmix64 over a
// process-unique sequence, salted per process).
func MintTraceID() uint64 {
	x := spanSeq.Add(1) + traceSalt
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// SpanRecord is one completed span inside a TraceState: the request-local
// copy of the trace event, retained so exemplars can reconstruct the full
// tree after the global event buffer has moved on.
type SpanRecord struct {
	Name     string `json:"name"`
	Cat      string `json:"cat"`
	Track    int    `json:"track"`
	Start    int64  `json:"start_ns"`
	Dur      int64  `json:"dur_ns"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`
	Err      string `json:"error,omitempty"`
}

// TraceState is the per-request trace context: the trace id, the current
// causal parent, and a bounded pre-sized buffer of completed spans. One
// TraceState is shared by every layer a request touches; the span buffer is
// mutex-guarded because the model's worker and the request's handler both
// append.
type TraceState struct {
	traceID uint64
	// root is the adopted remote parent span id (from traceparent), 0 when
	// the trace was minted locally. Root spans parent onto it.
	root uint64
	// cur is the span id of the current causal parent. Spans opened via
	// StartSpanCtx/StartTraceSpan parent onto cur; MakeCurrent swaps it.
	cur atomic.Uint64

	mu        sync.Mutex
	spans     []SpanRecord
	truncated int
}

// NewTraceState builds a trace context. traceID 0 mints a fresh id;
// parentSpan is the adopted remote parent (0 when none). maxSpans bounds the
// retained span records; the buffer is pre-sized so recording stays
// allocation-free.
func NewTraceState(traceID, parentSpan uint64, maxSpans int) *TraceState {
	if traceID == 0 {
		traceID = MintTraceID()
	}
	if maxSpans <= 0 {
		maxSpans = 1
	}
	ts := &TraceState{
		traceID: traceID,
		root:    parentSpan,
		spans:   make([]SpanRecord, 0, maxSpans),
	}
	ts.cur.Store(parentSpan)
	return ts
}

// TraceID returns the 64-bit trace id.
func (ts *TraceState) TraceID() uint64 { return ts.traceID }

// record appends one completed span, dropping (and counting) past the
// pre-sized capacity so a pathological request cannot grow without bound.
func (ts *TraceState) record(rec SpanRecord) {
	ts.mu.Lock()
	if len(ts.spans) < cap(ts.spans) {
		ts.spans = append(ts.spans, rec)
	} else {
		ts.truncated++
	}
	ts.mu.Unlock()
}

// Snapshot copies the retained span records and the truncation count.
func (ts *TraceState) Snapshot() ([]SpanRecord, int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]SpanRecord, len(ts.spans))
	copy(out, ts.spans)
	return out, ts.truncated
}

// traceKey is the context key for the TraceState. A zero-size struct key
// makes ctx.Value lookups allocation-free.
type traceKey struct{}

// ContextWithTrace attaches ts to ctx. Called once per request's forward
// pass — never on the per-span path, so the one context allocation
// amortises over the whole request.
func ContextWithTrace(ctx context.Context, ts *TraceState) context.Context {
	return context.WithValue(ctx, traceKey{}, ts)
}

// TraceOf extracts the TraceState from ctx, nil when the request is
// untraced. Zero-alloc.
func TraceOf(ctx context.Context) *TraceState {
	if ctx == nil {
		return nil
	}
	ts, _ := ctx.Value(traceKey{}).(*TraceState)
	return ts
}

// StartSpanCtx opens a span that parents onto the trace in ctx (plain
// track-local span when ctx carries no trace). One atomic load when
// disabled.
func StartSpanCtx(ctx context.Context, track, cat, name string) Span {
	if !Enabled() {
		return Span{}
	}
	return defaultReg.startTraceSpan(TraceOf(ctx), track, cat, name)
}

// StartTraceSpan opens a span under an explicit trace state (nil behaves
// like StartSpan). One atomic load when disabled.
func StartTraceSpan(ts *TraceState, track, cat, name string) Span {
	if !Enabled() {
		return Span{}
	}
	return defaultReg.startTraceSpan(ts, track, cat, name)
}

func (r *Registry) startTraceSpan(ts *TraceState, track, cat, name string) Span {
	s := Span{reg: r, name: name, cat: cat, track: r.Track(track), start: now()}
	if ts != nil {
		s.ts = ts
		s.traceID = ts.traceID
		s.spanID = nextSpanID()
		s.parentID = ts.cur.Load()
	}
	return s
}

// MakeCurrent installs this span as the causal parent for spans opened
// after it on the same trace, returning the previous parent for
// RestoreCurrent. Valid because the layers below a request execute
// sequentially (program steps run one at a time within a Run).
func (s Span) MakeCurrent() uint64 {
	if s.ts == nil {
		return 0
	}
	return s.ts.cur.Swap(s.spanID)
}

// RestoreCurrent undoes MakeCurrent.
func (s Span) RestoreCurrent(prev uint64) {
	if s.ts == nil {
		return
	}
	s.ts.cur.Store(prev)
}

// SpanID returns the span's id (0 when untraced or inert).
func (s Span) SpanID() uint64 { return s.spanID }

// RecordSpan records an already-measured interval as a completed span on the
// trace: the serving layer uses it for stage attribution (admission,
// queue_wait, kernel, respond) where begin and end were stamped earlier with
// Now(). parent 0 adopts the trace's current parent. Returns the new span id.
func RecordSpan(ts *TraceState, track, cat, name string, start, end int64, parent uint64) uint64 {
	if !Enabled() {
		return 0
	}
	return defaultReg.RecordSpan(ts, track, cat, name, start, end, parent)
}

// RecordSpan is the registry form of the package-level RecordSpan.
func (r *Registry) RecordSpan(ts *TraceState, track, cat, name string, start, end int64, parent uint64) uint64 {
	if !Enabled() {
		return 0
	}
	if end < start {
		end = start
	}
	ev := TraceEvent{
		Name: name, Cat: cat, Track: r.Track(track),
		Start: start, Dur: end - start,
	}
	if ts != nil {
		if parent == 0 {
			parent = ts.cur.Load()
		}
		ev.TraceID = ts.traceID
		ev.SpanID = nextSpanID()
		ev.ParentID = parent
		ts.record(SpanRecord{
			Name: name, Cat: cat, Track: ev.Track,
			Start: start, Dur: ev.Dur,
			SpanID: ev.SpanID, ParentID: parent,
		})
	}
	r.addEvent(ev)
	return ev.SpanID
}
