// Package telemetry is the execution layer's observability subsystem: named
// atomic counters and gauges, fixed-bucket latency histograms, per-kernel
// sites, and span-based tracing with two exporters (Chrome trace-event JSON
// and Prometheus text format).
//
// The package follows the one-atomic-load disarmed-hook pattern proven in
// internal/faultinject: every instrumentation site first checks Enabled(),
// which is a single atomic load, and does nothing else while telemetry is
// off. That keeps the zero-allocation steady state of compiled model
// programs intact — the sites are compiled into release binaries and cost
// one predictable branch when disarmed. When enabled, sites pay a mutex
// acquisition and (for trace events) an amortised slice append; the budget
// is <5% wall clock on kernel-scale work (EXPERIMENTS.md records measured
// numbers).
//
// The package depends only on the standard library and the equally
// dependency-free worker pool (whose counters it exports), so every layer —
// core backends, the program runtime, models, the daemon, the CLIs — can
// import it without cycles.
package telemetry

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vec"
	"repro/internal/workpool"
)

// enabled is the process-wide master switch. All hot-path hooks collapse to
// one load of it while off.
var enabled atomic.Bool

// SetEnabled arms (true) or disarms (false) every instrumentation site.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether telemetry is collecting. One atomic load.
func Enabled() bool { return enabled.Load() }

// epoch anchors the monotonic clock all timestamps are relative to, so trace
// timestamps start near zero and survive wall-clock adjustments.
var epoch = time.Now()

// now returns monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// Now exposes the span clock for callers that bracket work manually.
func Now() int64 { return now() }

// Counter is a named monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a named atomic float64 last-value gauge.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultLatencyBuckets are the fixed histogram bounds for step and request
// wall time, in seconds: 10us .. 10s, one decade apart (kernels on the datasets
// of Table 3 span roughly 50us-100ms on the host backends).
var DefaultLatencyBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Histogram is a fixed-bucket latency histogram with atomic buckets. Bounds
// are upper-inclusive in seconds (Prometheus "le" semantics); observations
// arrive in nanoseconds.
type Histogram struct {
	bounds []float64 // seconds, ascending; an implicit +Inf bucket follows
	counts []atomic.Int64
	sumNs  atomic.Int64
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one latency in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	s := float64(ns) / 1e9
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.sumNs.Add(ns)
	h.count.Add(1)
}

// ObserveValue records one unitless observation (e.g. a batch size) against
// bounds interpreted in the same unit. The sum is stored scaled so
// SumSeconds — really "sum in the bound unit" for such histograms — stays
// exact for small integers.
func (h *Histogram) ObserveValue(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sumNs.Add(int64(v * 1e9))
	h.count.Add(1)
}

// Count reports how many observations the histogram holds.
func (h *Histogram) Count() int64 { return h.count.Load() }

// SumSeconds reports the observation total in seconds.
func (h *Histogram) SumSeconds() float64 { return float64(h.sumNs.Load()) / 1e9 }

// Registry holds a metric namespace plus the trace-event stream and the
// kernel sites. The package-level Default registry is what the instrumentation
// hooks write to; tests may build private registries.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	tracks     map[string]int
	trackNames []string
	events     []TraceEvent
	maxEvents  int
	// noEvents turns the global event buffer off (SetEventRetention).
	noEvents atomic.Bool

	sites []*KernelSite

	// Pre-registered series, resolved once so hot paths skip the map.
	fallbacks *Counter
	dropped   *Counter
}

// Well-known series names. Counters end in _total per Prometheus convention.
const (
	MetricFallbacks     = "ugrapher_fallbacks_total"
	MetricDroppedEvents = "ugrapher_trace_events_dropped_total"
	// The worker pool's series are read from the pool at snapshot time
	// rather than stored: the pool is process-wide, so every registry
	// reports the same values and Reset does not clear them.
	MetricPoolWorkers = "ugrapher_pool_workers"
	MetricPoolJobs    = "ugrapher_pool_jobs_total"
	MetricPoolChunks  = "ugrapher_pool_chunks_total"
	// MetricKernelISA is an info series — value 1, the fact in the label —
	// naming the inner loops this process runs: isa="avx2" (internal/vec) or
	// isa="generic" (the Go loops). Every snapshot carries it, so a recorded
	// latency is attributable to the kernels that produced it.
	MetricKernelISA = "ugrapher_kernel_isa"
)

// addPoolCounters folds the worker pool's counters into a snapshot: how
// many jobs were dispatched onto the pool and who ran their chunks — the
// submitting goroutine or a helper. helper = 0 with jobs > 0 means
// parallelism was offered but never engaged.
func addPoolCounters(counters map[string]int64) {
	st := workpool.Snapshot()
	counters[MetricPoolJobs] = st.Jobs
	counters[Series1(MetricPoolChunks, "by", "caller")] = st.CallerChunks
	counters[Series1(MetricPoolChunks, "by", "helper")] = st.HelperChunks
}

// addProcessGauges folds the process-wide facts into a snapshot: the pool's
// helper-goroutine count and the kernel set dispatched to.
func addProcessGauges(gauges map[string]float64) {
	gauges[MetricPoolWorkers] = float64(workpool.Snapshot().Helpers)
	gauges[Series1(MetricKernelISA, "isa", vec.ISA())] = 1
}

const defaultMaxEvents = 1 << 19

// NewRegistry builds an empty registry with the well-known series
// pre-registered (so snapshots always carry fallbacks_total etc., even at
// zero).
func NewRegistry() *Registry {
	r := &Registry{}
	r.init()
	return r
}

func (r *Registry) init() {
	r.counters = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.hists = map[string]*Histogram{}
	r.tracks = map[string]int{}
	r.trackNames = nil
	r.events = nil
	r.maxEvents = defaultMaxEvents
	r.noEvents.Store(false)
	r.sites = nil
	r.fallbacks = r.counterLocked(MetricFallbacks)
	r.dropped = r.counterLocked(MetricDroppedEvents)
}

// SetMaxEvents bounds the trace-event buffer at n events and pre-allocates
// its backing array, so enabled-path appends never grow the slice — the
// zero-alloc guarantee for traced steady-state runs. Events beyond the bound
// are dropped and counted (ugrapher_trace_events_dropped_total).
//
//lint:allow unread -- the traced zero-alloc tests of program and models pre-size the buffer with it
func (r *Registry) SetMaxEvents(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxEvents = n
	if cap(r.events) < n {
		grown := make([]TraceEvent, len(r.events), n)
		copy(grown, r.events)
		r.events = grown
	}
}

// SetEventRetention says whether completed spans and instant events are kept
// in the registry's global event buffer (on by default, bounded by
// SetMaxEvents). A process that will never export the buffer — the daemon
// started without -trace — turns it off: nothing is appended, nothing is
// counted as dropped (an event nobody asked for is not a loss), and
// everything else a span feeds is unchanged — request trees, exemplars,
// histograms, counters.
func (r *Registry) SetEventRetention(on bool) { r.noEvents.Store(!on) }

// SetBuildInfo publishes the conventional ugrapher_build_info gauge (value
// fixed at 1; the interesting data is in the labels). The Go toolchain
// version label is filled in automatically.
func (r *Registry) SetBuildInfo(version, backend string) {
	r.Gauge(Series3("ugrapher_build_info",
		"version", version,
		"go_version", runtime.Version(),
		"backend", backend)).Set(1)
}

// Reset clears every metric, track, event, record and site, restoring the
// registry to its freshly constructed state. Sites created before Reset keep
// functioning but stop being exported.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.init()
}

// defaultReg is the process-wide registry the hooks write to.
var defaultReg = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultReg }

// Reset disarms telemetry and clears the default registry.
//
//lint:allow unread -- tests in most packages isolate from each other with it
func Reset() {
	SetEnabled(false)
	defaultReg.Reset()
}

func (r *Registry) counterLocked(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Counter returns the named counter, creating it on first use. The name is
// the full Prometheus series including any labels, e.g.
// `ugrapher_kernel_runs_total{backend="parallel",strategy="TE"}`.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counterLocked(name)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with bounds on first
// use (later calls keep the original bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterValues snapshots every counter series.
//
//lint:allow unread -- the telemetry and models tests read counters through it
func (r *Registry) CounterValues() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	addPoolCounters(out)
	return out
}

// GaugeValues snapshots every gauge series.
//
//lint:allow unread -- the telemetry and shard tests read gauges through it
func (r *Registry) GaugeValues() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.gauges))
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	addProcessGauges(out)
	return out
}

// Series1 renders name{key="value"} — the label form the exporters and
// sites agree on. Values are escaped per the Prometheus text format.
func Series1(name, key, value string) string {
	return name + "{" + key + "=\"" + escapeLabel(value) + "\"}"
}

// Series2 renders name{k1="v1",k2="v2"} with keys in the given order.
func Series2(name, k1, v1, k2, v2 string) string {
	return name + "{" + k1 + "=\"" + escapeLabel(v1) + "\"," + k2 + "=\"" + escapeLabel(v2) + "\"}"
}

// Series3 renders name{k1="v1",k2="v2",k3="v3"} with keys in the given
// order.
func Series3(name, k1, v1, k2, v2, k3, v3 string) string {
	return name + "{" + k1 + "=\"" + escapeLabel(v1) + "\"," +
		k2 + "=\"" + escapeLabel(v2) + "\"," +
		k3 + "=\"" + escapeLabel(v3) + "\"}"
}

func escapeLabel(v string) string {
	needs := false
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' || v[i] == '"' || v[i] == '\n' {
			needs = true
			break
		}
	}
	if !needs {
		return v
	}
	out := make([]byte, 0, len(v)+4)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// formatFloat renders a float the way the Prometheus exporter does.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
