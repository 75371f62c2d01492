package serve

import (
	"net/http"

	"repro/internal/program"
	"repro/internal/telemetry"
)

// Serving-layer metric names, exported through the telemetry registry's
// Prometheus writer alongside the execution-layer series
// (ugrapher_fallbacks_total, kernel histograms, ...). Counters are updated
// at the event site; gauges are refreshed at scrape time by the /metrics
// handler, which is the one consumer that needs a consistent snapshot.
const (
	// metricRequests counts admitted inference requests, per model.
	metricRequests = "ugrapher_serve_requests_total"
	// metricRejected counts fast-rejected requests (bounded queue full),
	// per model — the backpressure signal.
	metricRejected = "ugrapher_serve_rejected_total"
	// metricTimeouts counts requests that hit their server-enforced
	// deadline before their forward pass delivered, per model.
	metricTimeouts = "ugrapher_serve_timeouts_total"
	// metricBatches counts forward passes, per model: one per request the
	// worker ran, two when a failed row run was answered by a full pass (the
	// name predates one-request passes and stays for the readers of the
	// series, the benchmark among them).
	metricBatches = "ugrapher_serve_batches_total"
	// metricDegraded counts requests answered with a kernel rerun on the
	// reference interpreter (the fallback ladder), per model.
	metricDegraded = "ugrapher_serve_degraded_total"
	// metricQueueDepth gauges the per-model queue occupancy at scrape time.
	metricQueueDepth = "ugrapher_serve_queue_depth"
	// metricFallbackWindow gauges the resilient-ladder fallbacks since the
	// previous scrape (core.ResilientBackend.Reset per window), per model.
	// The monotonic total stays in ugrapher_fallbacks_total.
	metricFallbackWindow = "ugrapher_serve_fallback_window"
	// metricRequestSeconds is the admitted-request latency histogram
	// (admission to response delivery), per model.
	metricRequestSeconds = "ugrapher_serve_request_seconds"
	// metricCompiles counts programs compiled: one per distinct model.
	metricCompiles = "ugrapher_serve_compiles_total"
	// The resident size of a model's compiled program by part — arena, packed
	// GEMM weights, region staging buffers, row-resident regions' slabs;
	// gauges per model, set once at compile.
	metricProgramArenaBytes   = "ugrapher_program_arena_bytes"
	metricProgramPackedBytes  = "ugrapher_program_packed_bytes"
	metricProgramStagingBytes = "ugrapher_program_staging_bytes"
	metricProgramSlabBytes    = "ugrapher_program_slab_bytes"
	// metricStageSeconds is the per-stage latency attribution histogram,
	// labelled by model and stage (admission, queue_wait, compile, kernel,
	// respond) — the aggregate view of the per-request timing breakdown
	// (DESIGN.md §8).
	metricStageSeconds = "ugrapher_serve_stage_seconds"
	// metricForwardMode counts successful forward passes by how the program
	// answered them, per model: mode="rows" for a row-subset run of the
	// request's closure, mode="full" for the whole graph (the closure was
	// past the crossover, the program has a step without a row form, or the
	// row run failed a kernel). The two sum to the successful passes.
	metricForwardMode = "ugrapher_serve_forward_mode_total"
	// metricClosureRows is the distribution of |R_0| per forward pass: the
	// input rows the answer was computed from — the request's exact L-hop
	// in-closure for a row run, |V| for a full pass. It is the cost of a
	// request (2408.01902), and the gap to |V| is what a row run saves.
	metricClosureRows = "ugrapher_serve_closure_rows"
)

// closureRowsBuckets are the bounds of metricClosureRows, in rows: powers of
// four from a request's own vertices to a million-vertex graph.
var closureRowsBuckets = []float64{4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// hostMetrics resolves one model's counter/histogram series once, so the
// request path never takes the registry map lock.
type hostMetrics struct {
	requests *telemetry.Counter
	rejected *telemetry.Counter
	timeouts *telemetry.Counter
	batches  *telemetry.Counter
	degraded *telemetry.Counter
	latency  *telemetry.Histogram

	forwardRows *telemetry.Counter
	forwardFull *telemetry.Counter
	closureRows *telemetry.Histogram

	// Stage-attribution histograms (one per stage; observed in ns like
	// every latency series). Registered eagerly so /metrics carries every
	// stage series from the first scrape, observations or not.
	stageAdmission *telemetry.Histogram
	stageQueueWait *telemetry.Histogram
	stageKernel    *telemetry.Histogram
	stageRespond   *telemetry.Histogram
	stageCompile   *telemetry.Histogram
}

func newHostMetrics(model string) hostMetrics {
	r := telemetry.Default()
	stage := func(name string) *telemetry.Histogram {
		return r.Histogram(telemetry.Series2(metricStageSeconds, "model", model, "stage", name),
			telemetry.DefaultLatencyBuckets)
	}
	return hostMetrics{
		requests: r.Counter(telemetry.Series1(metricRequests, "model", model)),
		rejected: r.Counter(telemetry.Series1(metricRejected, "model", model)),
		timeouts: r.Counter(telemetry.Series1(metricTimeouts, "model", model)),
		batches:  r.Counter(telemetry.Series1(metricBatches, "model", model)),
		degraded: r.Counter(telemetry.Series1(metricDegraded, "model", model)),
		latency: r.Histogram(telemetry.Series1(metricRequestSeconds, "model", model),
			telemetry.DefaultLatencyBuckets),
		forwardRows:    r.Counter(telemetry.Series2(metricForwardMode, "model", model, "mode", "rows")),
		forwardFull:    r.Counter(telemetry.Series2(metricForwardMode, "model", model, "mode", "full")),
		closureRows:    r.Histogram(telemetry.Series1(metricClosureRows, "model", model), closureRowsBuckets),
		stageAdmission: stage("admission"),
		stageQueueWait: stage("queue_wait"),
		stageKernel:    stage("kernel"),
		stageRespond:   stage("respond"),
		stageCompile:   stage("compile"),
	}
}

// publishProgramBytes sets one model's program-size gauges from its compile
// stats.
func publishProgramBytes(model string, st program.Stats) {
	set := func(metric string, floats int) {
		telemetry.Default().Gauge(telemetry.Series1(metric, "model", model)).Set(float64(floats) * 4)
	}
	set(metricProgramArenaBytes, st.ArenaFloats)
	set(metricProgramPackedBytes, st.PackedFloats)
	set(metricProgramStagingBytes, st.StagingFloats)
	set(metricProgramSlabBytes, st.SlabFloats)
}

// handleMetrics refreshes the scrape-time gauges and writes the Prometheus
// snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := telemetry.Default()
	for _, h := range s.hosts {
		reg.Gauge(telemetry.Series1(metricQueueDepth, "model", h.name)).Set(float64(len(h.queue)))
		// One fallback window per scrape: the gauge carries this window's
		// ladder activations, the monotonic ugrapher_fallbacks_total keeps
		// the lifetime count.
		reg.Gauge(telemetry.Series1(metricFallbackWindow, "model", h.name)).Set(float64(h.resilient.Reset()))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := reg.WritePrometheus(w); err != nil {
		// The connection failed mid-write; nothing recoverable.
		return
	}
}
