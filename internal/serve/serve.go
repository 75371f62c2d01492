// Package serve is the inference daemon behind cmd/ugrapher-serve: an HTTP
// JSON front end over compiled model programs (DESIGN.md §13).
//
// The pipeline per request is admission → queue → the model's worker →
// compiled program, with four failure-containment mechanisms layered on:
//
//   - admission control: each model has a bounded queue; when it is full
//     the handler rejects immediately with 429 + Retry-After instead of
//     letting latency grow without bound (reject-fast backpressure).
//   - deadline propagation: each request is one forward pass whose context
//     carries the request's deadline, and the handler enforces the same
//     deadline on its own timer, so a slow pass cannot wedge a worker or
//     hold a client past its budget.
//   - graceful degradation: each model's one program is compiled on a
//     core.ResilientBackend; a request whose row run fails a kernel
//     (*core.KernelError) is answered by a full pass, where the backend's
//     fallback ladder reruns each failing kernel on the reference
//     interpreter, and the response says degraded.
//   - graceful drain: Drain stops admission (readyz flips unready first),
//     lets in-flight requests finish under a deadline, and shuts the
//     workers down.
//
// A CompiledProgram is not safe for concurrent use (one shared arena), so
// each model is owned by exactly one worker goroutine, which runs one
// request's forward pass at a time.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// Config is the daemon's startup configuration.
type Config struct {
	// Dataset is the graph every model serves (Table 3 code, e.g. "CO").
	Dataset string
	// Models lists the model names to load (see models.All).
	Models []string
	// Feat and Classes shape the compiled forward pass.
	Feat    int
	Classes int
	// Shards is the graph shard count: 0 = auto-size, 1 = unsharded.
	Shards int
	// QueueDepth bounds each model's request queue; a full queue
	// fast-rejects with 429.
	QueueDepth int
	// DefaultTimeout applies when a request carries no timeout_ms;
	// MaxTimeout clamps what a request may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight work.
	DrainTimeout time.Duration
}

const (
	// exemplarSlow and exemplarErrors bound the tail-sampled request
	// exemplar store behind /debug/requests: the N slowest and the N most
	// recent errored requests keep their full span trees.
	exemplarSlow   = 16
	exemplarErrors = 16
	// traceSpanCap bounds the span records retained per request trace
	// (beyond it, spans still export to the global buffer but drop from the
	// request's own tree).
	traceSpanCap = 192
)

// applyDefaults fills zero and negative fields with serving defaults.
func (c *Config) applyDefaults() {
	if c.Dataset == "" {
		c.Dataset = "CO"
	}
	if len(c.Models) == 0 {
		c.Models = []string{"GCN"}
	}
	if c.Feat <= 0 {
		c.Feat = 16
	}
	if c.Classes <= 0 {
		c.Classes = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
}

// Server is the daemon: per-model hosts behind an HTTP mux.
type Server struct {
	cfg   Config
	g     *graph.Graph
	hosts map[string]*modelHost // key: lower-cased model name
	order []string              // canonical names, load order
	mux   *http.ServeMux
	// exemplars is the tail-sampled request store behind /debug/requests.
	exemplars *telemetry.ExemplarStore

	ready atomic.Bool
	// gate serializes admission against drain: handlers take the read
	// side to check draining and join inflight; Drain takes the write side
	// to flip draining, so no request can slip in after the drain barrier.
	gate     sync.RWMutex
	draining bool
	inflight sync.WaitGroup
}

// New loads the dataset, compiles one program per distinct model, starts
// the workers, waits for their warm-up, and returns a ready server.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	g, _, err := datasets.Load(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	// The stored feature matrix all vertex queries read from, seeded
	// exactly like cmd/ugrapher's -model path so results are comparable
	// across tools (and precomputable by black-box tests).
	x := tensor.NewDense(g.NumVertices(), cfg.Feat)
	x.FillRandom(rand.New(rand.NewSource(42)), 1)

	s := &Server{
		cfg:       cfg,
		g:         g,
		hosts:     make(map[string]*modelHost),
		exemplars: telemetry.NewExemplarStore(exemplarSlow, exemplarErrors),
	}
	for _, name := range cfg.Models {
		m, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		key := strings.ToLower(m.Name())
		if _, dup := s.hosts[key]; dup {
			continue
		}
		h, err := s.newHost(m, x)
		if err != nil {
			return nil, fmt.Errorf("model %s: %w", m.Name(), err)
		}
		s.hosts[key] = h
		s.order = append(s.order, m.Name())
	}
	// Every model is compiled before any worker starts, so the workers warm
	// up side by side (host.go, warmupFor); ready means each has run its
	// program.
	for _, h := range s.hosts {
		go h.run()
	}
	for _, h := range s.hosts {
		<-h.warm
	}
	s.buildMux()
	s.ready.Store(true)
	return s, nil
}

// newHost compiles m's program and assembles the host around it. The host
// engine fixes the schedules (models.NewHostEngine): nothing the host
// lowering runs depends on a simulator search, so none is paid here.
func (s *Server) newHost(m models.Model, x *tensor.Dense) (*modelHost, error) {
	// One program, compiled on the ladder: a kernel of a full pass that fails
	// on the parallel backend reruns on the reference interpreter. The pool
	// is sized by GOMAXPROCS.
	rb := core.NewResilientBackend(core.NewShardedParallelBackend(0, s.cfg.Shards))
	// Compile time is a stage like any other: it records into the per-model
	// stage histogram so a cold start is attributable.
	compileStart := time.Now()
	prog, err := models.CompileModel(m, s.g, s.cfg.Feat, s.cfg.Classes, models.NewHostEngine(rb))
	if err != nil {
		return nil, err
	}
	compileTime := time.Since(compileStart)
	hm := newHostMetrics(m.Name())
	hm.stageCompile.Observe(int64(compileTime))
	publishProgramBytes(m.Name(), prog.Stats())
	return &modelHost{
		name:        m.Name(),
		queue:       make(chan *request, s.cfg.QueueDepth),
		prog:        prog,
		resilient:   rb,
		compileTime: compileTime,
		features:    x,
		m:           hm,
		warm:        make(chan struct{}),
		done:        make(chan struct{}),
	}, nil
}

func (s *Server) buildMux() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/infer", s.handleInfer)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/requests", s.handleDebugRequests)
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain performs graceful shutdown of the serving layer: flip unready,
// stop admitting, wait out in-flight requests under the deadline, then
// stop the workers. The HTTP listener itself is the caller's to close
// (after Drain returns, so /healthz and /readyz stay reachable while
// draining). Returns an error if in-flight work outlived the deadline.
func (s *Server) Drain(timeout time.Duration) error {
	s.ready.Store(false)
	s.gate.Lock()
	alreadyDraining := s.draining
	s.draining = true
	s.gate.Unlock()
	if alreadyDraining {
		return nil
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		// Queues may still hold requests whose handlers could race a
		// close; leave them open — the process is exiting anyway.
		return fmt.Errorf("serve: drain timed out after %v with requests in flight", timeout)
	}
	for _, name := range s.order {
		close(s.hosts[strings.ToLower(name)].queue)
	}
	for _, name := range s.order {
		h := s.hosts[strings.ToLower(name)]
		select {
		case <-h.done:
		case <-time.After(timeout):
			return fmt.Errorf("serve: worker %s did not exit within %v", h.name, timeout)
		}
	}
	return nil
}

// The wire format. Requests are decoded by readInfer (body.go).

type inferResponse struct {
	Model    string      `json:"model"`
	Logits   [][]float32 `json:"logits"`
	Degraded bool        `json:"degraded"`
	// Timing is the per-stage latency breakdown, present while telemetry is
	// enabled.
	Timing *timingBreakdown `json:"timing,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection failed mid-write; nothing recoverable
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleInfer is admission control plus the request's half of the worker
// hand-off: queue with a non-blocking send (full queue → fast 429), then wait
// for the worker's response or this request's own deadline, whichever is
// first.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	// The trace context is minted (or adopted from traceparent /
	// X-Request-ID) before anything else can stall the handler, so a
	// middleware-style delay — the slow-handler fault below — lands inside
	// the admission stage of this request's own span tree.
	var (
		ts      *telemetry.TraceState
		root    telemetry.Span
		arrived int64
	)
	if telemetry.Enabled() {
		arrived = telemetry.Now()
		id, parent := traceIdentity(r)
		ts = telemetry.NewTraceState(id, parent, traceSpanCap)
		root = telemetry.StartTraceSpan(ts, "serve", "request", "infer")
		root.MakeCurrent()
		w.Header().Set("X-Trace-Id", fmt.Sprintf("%016x", ts.TraceID()))
	}
	status, errText, model := "error", "", ""
	defer func() {
		if ts == nil {
			return
		}
		if status == "ok" {
			root.End()
		} else {
			root.EndErr(errText)
		}
		spans, truncated := ts.Snapshot()
		s.exemplars.Offer(telemetry.RequestExemplar{
			TraceID: ts.TraceID(), Model: model, Status: status,
			Start: arrived, WallNs: telemetry.Now() - arrived,
			Err: errText, Stages: stagePoints(spans),
			Spans: spans, Truncated: truncated,
		})
	}()
	fail := func(code int, format string, args ...any) {
		errText = fmt.Sprintf(format, args...)
		writeError(w, code, "%s", errText)
	}

	// SlowHandler models a stalled handler (e.g. slow TLS termination or
	// middleware); armed only by tests and -faults.
	faultinject.MaybeSleep(faultinject.SlowHandler)
	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, "POST only")
		return
	}
	// A syntax or type error anywhere in the body is reported before the
	// model, the model before the vertices, the vertices before the shape
	// of a caller's feature matrix.
	req, err := readInfer(http.MaxBytesReader(w, r.Body, maxBodyBytes), s.g.NumVertices(), s.cfg.Feat)
	if err != nil {
		fail(http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	h, ok := s.hosts[strings.ToLower(req.model)]
	if !ok {
		fail(http.StatusNotFound, "unknown model %q (serving: %s)",
			req.model, strings.Join(s.order, ", "))
		return
	}
	model = h.name
	if err := h.validate(req.vertices, s.g.NumVertices()); err != nil {
		fail(http.StatusBadRequest, "%v", err)
		return
	}
	if req.featuresErr != nil {
		fail(http.StatusBadRequest, "%v", req.featuresErr)
		return
	}
	// Clamped in milliseconds, before the conversion: a huge timeout_ms
	// would overflow time.Duration and wrap negative.
	timeout := s.cfg.DefaultTimeout
	if req.timeoutMS > 0 {
		timeout = s.cfg.MaxTimeout
		if int64(req.timeoutMS) < s.cfg.MaxTimeout.Milliseconds() {
			timeout = time.Duration(req.timeoutMS) * time.Millisecond
		}
	}

	// Admission: drain wins races against new arrivals (see gate).
	s.gate.RLock()
	if s.draining {
		s.gate.RUnlock()
		fail(http.StatusServiceUnavailable, "draining")
		return
	}
	s.inflight.Add(1)
	s.gate.RUnlock()
	defer s.inflight.Done()

	start := time.Now()
	rq := &request{
		vertices: req.vertices,
		features: req.features,
		deadline: start.Add(timeout),
		resp:     make(chan response, 1),
	}
	if ts != nil {
		enqueued := telemetry.Now()
		telemetry.RecordSpan(ts, "serve", "stage", "admission", arrived, enqueued, root.SpanID())
		h.m.stageAdmission.Observe(enqueued - arrived)
		rq.ts, rq.rootSpan, rq.enqueued = ts, root.SpanID(), enqueued
	}
	select {
	case h.queue <- rq:
		h.m.requests.Inc()
	default:
		// Reject-fast backpressure: no blocking, no queueing beyond the
		// bound. Retry-After steers well-behaved clients off the spike.
		status = "rejected"
		h.m.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		fail(http.StatusTooManyRequests, "model %s queue full (depth %d)", h.name, s.cfg.QueueDepth)
		return
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case resp := <-rq.resp:
		h.m.latency.Observe(int64(time.Since(start)))
		switch {
		case resp.err == nil && !allFinite(resp.logits):
			// JSON carries no NaN or infinity. The stored features are in
			// [-1, 1]; only a request's own features can overflow.
			fail(http.StatusBadRequest, "the forward pass overflows float32 on the request's features")
		case resp.err == nil:
			status = "ok"
			out := inferResponse{Model: h.name, Logits: resp.logits, Degraded: resp.degraded}
			if ts != nil {
				done := telemetry.Now()
				telemetry.RecordSpan(ts, "serve", "stage", "respond", resp.runEnd, done, root.SpanID())
				h.m.stageRespond.Observe(done - resp.runEnd)
				out.Timing = &timingBreakdown{
					TraceID:     fmt.Sprintf("%016x", ts.TraceID()),
					AdmissionMS: msBetween(arrived, rq.enqueued),
					QueueWaitMS: msBetween(rq.enqueued, resp.runStart),
					KernelMS:    msBetween(resp.runStart, resp.runEnd),
					RespondMS:   msBetween(resp.runEnd, done),
					TotalMS:     msBetween(arrived, done),
				}
			}
			writeJSON(w, http.StatusOK, out)
		case errors.Is(resp.err, context.DeadlineExceeded):
			status = "timeout"
			h.m.timeouts.Inc()
			fail(http.StatusGatewayTimeout, "deadline exceeded in the forward pass: %v", resp.err)
		default:
			fail(http.StatusInternalServerError, "inference failed: %v", resp.err)
		}
	case <-timer.C:
		// The request's deadline passed while it was queued or its pass was
		// running. The pass's context carries the same deadline, so the
		// kernels stop too; the buffered response channel absorbs the late
		// result.
		status = "timeout"
		h.m.timeouts.Inc()
		fail(http.StatusGatewayTimeout, "deadline exceeded after %v", timeout)
	}
}

// handleModels lists what the daemon serves.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	type modelInfo struct {
		Name  string `json:"name"`
		Queue int    `json:"queue"`
		// CompileMS is what building the model's one program cost at start-up.
		CompileMS float64 `json:"compile_ms"`
		// Rewrites is what the compiler's dense-rewrite stage decided for the
		// program, one line per decision: the pass, the node, accepted (and
		// under which verifier rule) or rejected (and why), and the bytes the
		// recorded and the rewritten order stream.
		Rewrites []string `json:"rewrites"`
		// RowsCapable says whether a request's forward pass can run just the
		// closure of the requested rows (program.RunRows); when it cannot,
		// RowsDeclined names the step without a row form and every pass is
		// the whole graph.
		RowsCapable  bool   `json:"rows_capable"`
		RowsDeclined string `json:"rows_declined,omitempty"`
	}
	out := struct {
		Dataset  string `json:"dataset"`
		Vertices int    `json:"vertices"`
		Feat     int    `json:"feat"`
		Classes  int    `json:"classes"`
		// Kernels names the inner loops every model here runs on: "avx2"
		// (internal/vec) or "generic" (the Go loops).
		Kernels string      `json:"kernels"`
		Models  []modelInfo `json:"models"`
	}{
		Dataset: s.cfg.Dataset, Vertices: s.g.NumVertices(),
		Feat: s.cfg.Feat, Classes: s.cfg.Classes, Kernels: vec.ISA(),
	}
	for _, name := range s.order {
		h := s.hosts[strings.ToLower(name)]
		info := modelInfo{
			Name: h.name, Queue: len(h.queue),
			CompileMS: float64(h.compileTime) / float64(time.Millisecond),
		}
		for _, n := range h.prog.Rewrites() {
			info.Rewrites = append(info.Rewrites, n.String())
		}
		info.RowsCapable, info.RowsDeclined = h.prog.RowsCapable()
		out.Models = append(out.Models, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz reports liveness: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: flips unready the moment a drain starts,
// before any listener teardown, so load balancers stop routing first.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// allFinite reports whether no row holds a NaN or an infinity.
func allFinite(rows [][]float32) bool {
	for _, row := range rows {
		for _, v := range row {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
	}
	return true
}
