package telemetry

import (
	"context"
	"slices"
)

// Spans, trace events and kernel sites.
//
// The span hierarchy (DESIGN.md §8):
//
//	track "program"    compile, run, one span per program step
//	track <backend>    lower spans and one kernel span per CompiledKernel.Run
//	track "resilient"  instant events for fallback-ladder activations
//
// Tracks render as separate rows ("threads") in chrome://tracing / Perfetto.

// TraceEvent is one completed span or instant event, timestamped in
// monotonic nanoseconds since process start.
type TraceEvent struct {
	Name  string
	Cat   string
	Track int
	Start int64 // ns
	Dur   int64 // ns; 0 with Instant true means a point event
	// Instant marks a point event (Chrome ph "i") rather than a span.
	Instant bool
	Args    map[string]string

	// Causal-trace identity (DESIGN.md §8). Zero values mean the event is
	// track-local (pre-trace behaviour).
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
}

// Track interns a track name to a stable id (the Chrome "tid").
func (r *Registry) Track(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trackLocked(name)
}

func (r *Registry) trackLocked(name string) int {
	if id, ok := r.tracks[name]; ok {
		return id
	}
	id := len(r.trackNames)
	r.tracks[name] = id
	r.trackNames = append(r.trackNames, name)
	return id
}

// TrackNames lists the interned track names, index == track id.
func (r *Registry) TrackNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.trackNames))
	copy(out, r.trackNames)
	return out
}

// addEvent appends ev, dropping (and counting) when the buffer is full so a
// long-running process cannot grow without bound; with retention off
// (SetEventRetention) it keeps and counts nothing.
func (r *Registry) addEvent(ev TraceEvent) {
	if r.noEvents.Load() {
		return
	}
	r.mu.Lock()
	if len(r.events) >= r.maxEvents {
		r.mu.Unlock()
		r.dropped.Inc()
		return
	}
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events snapshots the collected trace events in arrival order.
func (r *Registry) Events() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEvent, len(r.events))
	copy(out, r.events)
	return out
}

// Span is an open interval on one track. The zero Span (telemetry disabled
// at StartSpan time) is inert: End and its variants are no-ops, so call
// sites need no second Enabled() check.
type Span struct {
	reg   *Registry
	name  string
	cat   string
	track int
	start int64

	// Trace identity; zero when the span was opened without a TraceState.
	ts       *TraceState
	traceID  uint64
	spanID   uint64
	parentID uint64
}

// StartSpan opens a span on the default registry; see Registry.StartSpan.
func StartSpan(track, cat, name string) Span {
	if !Enabled() {
		return Span{}
	}
	return defaultReg.StartSpan(track, cat, name)
}

// StartSpan opens a span named name on the given track. Returns the zero
// (inert) Span while telemetry is disabled.
func (r *Registry) StartSpan(track, cat, name string) Span {
	if !Enabled() {
		return Span{}
	}
	return Span{reg: r, name: name, cat: cat, track: r.Track(track), start: now()}
}

// End closes the span successfully.
func (s Span) End() { s.end(nil) }

// EndErr closes the span as failed, attaching the error text.
func (s Span) EndErr(errText string) {
	if s.reg == nil {
		return
	}
	s.end(map[string]string{"outcome": "error", "error": errText})
}

// EndArgs closes the span with explicit args.
func (s Span) EndArgs(args map[string]string) { s.end(args) }

func (s Span) end(args map[string]string) {
	if s.reg == nil {
		return
	}
	dur := now() - s.start
	s.reg.addEvent(TraceEvent{
		Name: s.name, Cat: s.cat, Track: s.track,
		Start: s.start, Dur: dur, Args: args,
		TraceID: s.traceID, SpanID: s.spanID, ParentID: s.parentID,
	})
	if s.ts != nil {
		s.ts.record(SpanRecord{
			Name: s.name, Cat: s.cat, Track: s.track,
			Start: s.start, Dur: dur,
			SpanID: s.spanID, ParentID: s.parentID,
			Err: args["error"], // nil-map lookup is free on the OK path
		})
	}
}

// Instant records a point event on a track (fallback-ladder activations).
func (r *Registry) Instant(track, cat, name string, args map[string]string) {
	if !Enabled() {
		return
	}
	r.addEvent(TraceEvent{
		Name: name, Cat: cat, Track: r.Track(track),
		Start: now(), Instant: true, Args: args,
	})
}

// Outcome classifies how a kernel run ended. The execution layer maps its
// error taxonomy (DESIGN.md §7) onto these values.
type Outcome string

const (
	OutcomeOK           Outcome = "ok"
	OutcomeKernelError  Outcome = "kernel_error"
	OutcomeNumericError Outcome = "numeric_error"
	OutcomeCancelled    Outcome = "cancelled"
	OutcomeError        Outcome = "error"
)

// KernelSite is the per-lowered-kernel instrumentation handle. Backends
// create one at Lower time (compile-time cost only) so each Run records
// through pre-resolved counters with no map lookups. A nil *KernelSite is
// inert — backends that wrap other backends' kernels null the inner site to
// avoid double-counting.
type KernelSite struct {
	reg      *Registry
	Op       string
	Strategy string
	Schedule string
	Backend  string
	Edges    int64
	// Walk is how the host kernel traverses the graph ("row-walk",
	// "edge-chunks"; "" for sequential backends) — set by the backend at
	// Lower time, because the schedule column names the plan's GPU strategy,
	// not the loop the host runs.
	Walk string

	track int
	runs  *Counter
	edges *Counter
	// okArgs is the span-args map for successful runs, built once at Lower
	// time so the steady-state End path allocates nothing.
	okArgs map[string]string

	nRuns   Counter
	nFails  Counter
	totalNs Counter
}

// NewKernelSite registers a site on the default registry.
func NewKernelSite(op, strategy, schedule, backend string, edges int64) *KernelSite {
	return defaultReg.NewKernelSite(op, strategy, schedule, backend, edges)
}

// NewKernelSite builds and registers the instrumentation handle for one
// lowered kernel. Safe to call with telemetry disabled; the site arms itself
// automatically when telemetry is enabled later.
func (r *Registry) NewKernelSite(op, strategy, schedule, backend string, edges int64) *KernelSite {
	s := &KernelSite{
		reg: r, Op: op, Strategy: strategy, Schedule: schedule, Backend: backend, Edges: edges,
		track: r.Track(backend),
		runs:  r.Counter(Series2("ugrapher_kernel_runs_total", "backend", backend, "strategy", strategy)),
		edges: r.Counter(Series1("ugrapher_kernel_edges_processed_total", "backend", backend)),
		okArgs: map[string]string{
			"op":       op,
			"strategy": strategy,
			"schedule": schedule,
			"outcome":  string(OutcomeOK),
		},
	}
	r.mu.Lock()
	r.sites = append(r.sites, s)
	r.mu.Unlock()
	return s
}

// Release unregisters the site: it leaves the registry's site list, so the
// profile no longer reads it, while counters already recorded stay. A kernel
// whose runs another site records (a wrapped kernel) or that will never run
// (one lowered by an abandoned compile attempt) releases its site. Nil-safe;
// releasing twice is a no-op.
func (s *KernelSite) Release() {
	if s == nil {
		return
	}
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := slices.Index(r.sites, s); i >= 0 {
		r.sites = slices.Delete(r.sites, i, i+1)
	}
}

// Begin opens a kernel run. Returns 0 (and does nothing else) while
// telemetry is disabled or the site is nil — one atomic load.
func (s *KernelSite) Begin() int64 {
	if s == nil || !Enabled() {
		return 0
	}
	return now()
}

// EndCtx closes a kernel run begun at start: bumps the per-strategy
// counters and the site's run totals, and appends the trace span. The
// span parents onto the current causal parent of the request trace carried
// by ctx (the program step that ran it), or is a root span when ctx carries
// no trace.
// Inert while disabled or on a nil site. The OK path allocates nothing —
// span args are the precomputed okArgs, ids ride in the pre-sized structs.
func (s *KernelSite) EndCtx(ctx context.Context, start int64, outcome Outcome, errText string) {
	if s == nil || !Enabled() {
		return
	}
	end := now()
	if start == 0 {
		start = end // enabled mid-run: report a zero-length span, not garbage
	}
	dur := end - start
	s.runs.Inc()
	s.edges.Add(s.Edges)
	s.nRuns.Inc()
	s.totalNs.Add(dur)
	s.span(TraceOf(ctx), start, dur, s.outcomeArgs(outcome, errText), errText)
}

// EndRowsCtx closes a row-subset run of the kernel (core.RowRunner) begun at
// start: the kernel span joins the request's tree like a full run's, so the
// tree still says where the time went, and a failure is counted — but the
// site's run, edge and wall-time totals are left alone: they describe full
// runs over the site's whole graph, and a run over a few dozen rows is not a
// sample of that. Inert while disabled or on a nil site; the OK path
// allocates nothing.
func (s *KernelSite) EndRowsCtx(ctx context.Context, start int64, outcome Outcome, errText string) {
	if s == nil || !Enabled() {
		return
	}
	end := now()
	if start == 0 {
		start = end
	}
	s.span(TraceOf(ctx), start, end-start, s.outcomeArgs(outcome, errText), errText)
}

// outcomeArgs counts a failed run and returns the span args of a run that
// ended in outcome. Steady state (ok) is the precomputed map; failures are
// cold and get a map of their own.
func (s *KernelSite) outcomeArgs(outcome Outcome, errText string) map[string]string {
	if outcome == OutcomeOK {
		return s.okArgs
	}
	args := map[string]string{
		"op":       s.Op,
		"strategy": s.Strategy,
		"schedule": s.Schedule,
		"outcome":  string(outcome),
	}
	if outcome != OutcomeOK {
		s.nFails.Inc()
		s.reg.Counter(Series2("ugrapher_kernel_failures_total", "backend", s.Backend, "outcome", string(outcome))).Inc()
		if errText != "" {
			args["error"] = errText
		}
	}
	return args
}

// span appends the kernel span to the global event buffer and, under a
// trace, to the request's own tree.
func (s *KernelSite) span(ts *TraceState, start, dur int64, args map[string]string, errText string) {
	ev := TraceEvent{
		Name: s.Op, Cat: "kernel", Track: s.track,
		Start: start, Dur: dur, Args: args,
	}
	if ts != nil {
		ev.TraceID = ts.traceID
		ev.SpanID = nextSpanID()
		ev.ParentID = ts.cur.Load()
		ts.record(SpanRecord{
			Name: s.Op, Cat: "kernel", Track: s.track,
			Start: start, Dur: dur,
			SpanID: ev.SpanID, ParentID: ev.ParentID,
			Err: errText,
		})
	}
	s.reg.addEvent(ev)
}

// SiteStats is the aggregate view of one kernel site (profile tables).
type SiteStats struct {
	Op       string
	Strategy string
	Schedule string
	Backend  string
	Walk     string
	Runs     int64
	Failures int64
	TotalNs  int64
}

// SiteStats snapshots every registered site's aggregates.
func (r *Registry) SiteStats() []SiteStats {
	r.mu.Lock()
	sites := make([]*KernelSite, len(r.sites))
	copy(sites, r.sites)
	r.mu.Unlock()
	out := make([]SiteStats, 0, len(sites))
	for _, s := range sites {
		out = append(out, SiteStats{
			Op: s.Op, Strategy: s.Strategy, Schedule: s.Schedule, Backend: s.Backend, Walk: s.Walk,
			Runs: s.nRuns.Value(), Failures: s.nFails.Value(), TotalNs: s.totalNs.Value(),
		})
	}
	return out
}

// RecordFallback counts one fallback-ladder activation. The counter always
// increments (the fallback path is cold and the count must survive a later
// enable); the instant event is only emitted while telemetry is enabled.
func RecordFallback(op, from, to string) {
	defaultReg.fallbacks.Inc()
	if Enabled() {
		defaultReg.Instant("resilient", "fallback", op, map[string]string{
			"op": op, "from": from, "to": to,
		})
	}
}
