package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/faultinject"
	"repro/internal/models"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// The in-process suite starts some twenty servers and times none of them, so
// it keeps the start-up warm-up (warmupFor) to a few passes; the e2e suite
// runs the real binary with the real one.
func TestMain(m *testing.M) {
	warmupFor = 10 * time.Millisecond
	os.Exit(m.Run())
}

// newTestServer builds a server plus an httptest front end. Tests share the
// process-global faultinject and telemetry state, so the suite runs
// serially (no t.Parallel) and every fault-arming test defers Reset.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Drain(5 * time.Second); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// postInfer sends one inference request and decodes the response. Failures
// report via Errorf (safe from spawned goroutines) and return status 0.
func postInfer(t *testing.T, url string, req inferRequest) (int, inferResponse, errorResponse) {
	t.Helper()
	var ok inferResponse
	var bad errorResponse
	body, err := json.Marshal(req)
	if err != nil {
		t.Errorf("marshal: %v", err)
		return 0, ok, bad
	}
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("post: %v", err)
		return 0, ok, bad
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read body: %v", err)
		return 0, ok, bad
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Errorf("bad 200 body %q: %v", raw, err)
			return 0, ok, bad
		}
	} else if err := json.Unmarshal(raw, &bad); err != nil {
		t.Errorf("bad error body (status %d) %q: %v", resp.StatusCode, raw, err)
		return 0, ok, bad
	}
	return resp.StatusCode, ok, bad
}

// referenceLogits computes the oracle output the served model must match:
// the interpreter's Forward on the reference backend, with the same seeds
// the server uses (features 42, weights 1234).
func referenceLogits(t *testing.T, model, dataset string, feat, classes int) *tensor.Dense {
	t.Helper()
	g, _, err := datasets.Load(dataset)
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewDense(g.NumVertices(), feat)
	x.FillRandom(rand.New(rand.NewSource(42)), 1)
	want, err := m.Forward(g, x, classes, models.NewHostEngine(core.ReferenceBackend()))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func maxAbsDiff(got []float32, want []float32) float64 {
	d := 0.0
	for i := range got {
		if v := math.Abs(float64(got[i]) - float64(want[i])); v > d {
			d = v
		}
	}
	return d
}

// TestInferMatchesReference: a served vertex query returns the same logits
// the reference interpreter computes for those vertices.
func TestInferMatchesReference(t *testing.T) {
	_, ts := newTestServer(t, Config{Models: []string{"GCN"}})
	want := referenceLogits(t, "GCN", "CO", 16, 8)

	vertices := []int{0, 7, 100, 2707}
	code, resp, _ := postInfer(t, ts.URL, inferRequest{Model: "gcn", Vertices: vertices})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Degraded {
		t.Error("healthy server answered degraded")
	}
	if len(resp.Logits) != len(vertices) {
		t.Fatalf("got %d rows, want %d", len(resp.Logits), len(vertices))
	}
	for i, v := range vertices {
		row := want.Data[v*want.Cols : (v+1)*want.Cols]
		if d := maxAbsDiff(resp.Logits[i], row); d > 1e-4 {
			t.Errorf("vertex %d: maxdiff %g vs reference", v, d)
		}
	}
}

// TestInferValidation: unknown models 404, bad vertices and bad feature
// shapes 400 — all without touching a worker.
func TestInferValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Models: []string{"GCN"}})

	code, _, e := postInfer(t, ts.URL, inferRequest{Model: "nope", Vertices: []int{0}})
	if code != http.StatusNotFound {
		t.Errorf("unknown model: status %d (%s)", code, e.Error)
	}
	code, _, _ = postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{999999}})
	if code != http.StatusBadRequest {
		t.Errorf("out-of-range vertex: status %d", code)
	}
	code, _, _ = postInfer(t, ts.URL, inferRequest{Model: "GCN"})
	if code != http.StatusBadRequest {
		t.Errorf("no vertices: status %d", code)
	}
	code, _, _ = postInfer(t, ts.URL, inferRequest{
		Model: "GCN", Vertices: []int{0}, Features: [][]float32{{1, 2}},
	})
	if code != http.StatusBadRequest {
		t.Errorf("bad feature shape: status %d", code)
	}
}

// TestQueueFullRejectsFast: with the worker stalled and the bounded queue
// full, further requests are rejected immediately with 429 + Retry-After
// instead of queuing without bound.
func TestQueueFullRejectsFast(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Models: []string{"GCN"}, QueueDepth: 2})

	// The first batch's worker stalls 400ms before collecting; everything
	// sent during the stall sits in (or overflows) the queue.
	faultinject.Arm(faultinject.QueueStall, faultinject.Spec{After: 1, Limit: 1, Delay: 400 * time.Millisecond})
	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{1}})
			codes <- code
		}()
	}
	wg.Wait()
	close(codes)
	var ok, rejected int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	// 1 picked by the worker + 2 queued can succeed; with 8 concurrent
	// sends at least some must overflow the depth-2 queue.
	if rejected == 0 {
		t.Fatalf("no 429s from an overflowing queue (ok=%d)", ok)
	}
	if ok == 0 {
		t.Fatal("every request rejected; admitted ones should complete")
	}
	// A rejection while the queue is full is a non-blocking channel send:
	// it must return fast even though the worker is stalled.
	faultinject.Reset()
	faultinject.Arm(faultinject.QueueStall, faultinject.Spec{After: 1, Limit: 1, Delay: 400 * time.Millisecond})
	go postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{1}}) // stalls the worker
	time.Sleep(100 * time.Millisecond)
	// Fill the queue.
	for len(s.hosts["gcn"].queue) < 2 {
		go postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{1}})
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	code, _, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{1}})
	elapsed := time.Since(start)
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d with a full queue, want 429", code)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("429 took %v; reject-fast should not wait on the worker", elapsed)
	}
}

// TestBatchingCoalesces: requests arriving while the worker is busy merge
// into one forward pass, and every member sees the batch size.
func TestBatchingCoalesces(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Models: []string{"GCN"}, MaxBatch: 16, QueueDepth: 16})
	h := s.hosts["gcn"]
	batchesBefore := h.m.batches.Value()

	// Stall the worker once so all concurrent sends are queued when it
	// collects its batch.
	faultinject.Arm(faultinject.QueueStall, faultinject.Spec{After: 1, Limit: 1, Delay: 300 * time.Millisecond})
	const n = 6
	var wg sync.WaitGroup
	sizes := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			code, resp, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{v}})
			if code != http.StatusOK {
				t.Errorf("status %d", code)
				return
			}
			sizes <- resp.Batched
		}(i)
	}
	wg.Wait()
	close(sizes)
	maxBatched := 0
	for b := range sizes {
		if b > maxBatched {
			maxBatched = b
		}
	}
	if maxBatched < 2 {
		t.Errorf("no coalescing observed (max batched = %d)", maxBatched)
	}
	if got := h.m.batches.Value() - batchesBefore; got >= n {
		t.Errorf("%d batches for %d requests; batching saved nothing", got, n)
	}
}

// TestMemberTimeoutDoesNotWedgeWorker: a request whose own deadline lapses
// mid-batch gets its 504 immediately, the batch finishes for the others,
// and the worker keeps serving.
func TestMemberTimeoutDoesNotWedgeWorker(t *testing.T) {
	defer faultinject.Reset()
	_, ts := newTestServer(t, Config{Models: []string{"GCN"}})

	faultinject.Arm(faultinject.QueueStall, faultinject.Spec{After: 1, Limit: 1, Delay: 300 * time.Millisecond})
	start := time.Now()
	code, _, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{0}, TimeoutMS: 50})
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	if elapsed > 250*time.Millisecond {
		t.Errorf("504 delivered after %v; the member deadline must not wait out the batch", elapsed)
	}
	// The worker survived the timed-out member.
	code, _, _ = postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{0}})
	if code != http.StatusOK {
		t.Fatalf("follow-up status %d; worker wedged?", code)
	}
}

// TestBreakerTripsAndRecovers drives the full breaker lifecycle with
// injected kernel panics: closed (failures surface) → open (degraded
// service with reference-correct outputs) → half-open probe → closed.
func TestBreakerTripsAndRecovers(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{
		Models: []string{"GCN"}, BreakerThreshold: 2, BreakerCooldown: 150 * time.Millisecond,
	})
	h := s.hosts["gcn"]
	want := referenceLogits(t, "GCN", "CO", 16, 8)

	// Every primary-backend run panics; the reference interpreter (the
	// resilient ladder's fallback rung) is untouched by KernelPanicLoad.
	faultinject.Arm(faultinject.KernelPanicLoad, faultinject.Spec{After: 1, Every: 1})

	// Failures below the threshold surface as 500s from the closed breaker.
	for i := 0; i < 2; i++ {
		code, _, e := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{3}})
		if code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d (%s), want 500 while breaker closed", i, code, e.Error)
		}
	}
	if got := h.br.current(); got != breakerOpen {
		t.Fatalf("breaker %v after %d kernel failures, want open", got, 2)
	}

	// Open: requests succeed on the degraded program, outputs ≡ reference.
	code, resp, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{3, 42}})
	if code != http.StatusOK {
		t.Fatalf("degraded request: status %d", code)
	}
	if !resp.Degraded {
		t.Error("open breaker served degraded=false")
	}
	for i, v := range []int{3, 42} {
		row := want.Data[v*want.Cols : (v+1)*want.Cols]
		if d := maxAbsDiff(resp.Logits[i], row); d > 1e-4 {
			t.Errorf("degraded vertex %d: maxdiff %g vs reference", v, d)
		}
	}
	if h.resilient.Fallbacks() == 0 {
		t.Error("degraded batch recorded no resilient fallbacks")
	}

	// Heal the backend, wait out the cooldown: the half-open probe runs on
	// the primary, succeeds, and closes the breaker.
	faultinject.Reset()
	time.Sleep(200 * time.Millisecond)
	code, resp, _ = postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{3}})
	if code != http.StatusOK {
		t.Fatalf("probe request: status %d", code)
	}
	if resp.Degraded {
		t.Error("probe request served degraded; it should run the primary")
	}
	if got := h.br.current(); got != breakerClosed {
		t.Errorf("breaker %v after successful probe, want closed", got)
	}
}

// TestBreakerReopensOnFailedProbe: a probe that still fails sends the
// breaker straight back to open.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{
		Models: []string{"GCN"}, BreakerThreshold: 1, BreakerCooldown: 100 * time.Millisecond,
	})
	h := s.hosts["gcn"]

	faultinject.Arm(faultinject.KernelPanicLoad, faultinject.Spec{After: 1, Every: 1})
	if code, _, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{0}}); code != http.StatusInternalServerError {
		t.Fatalf("trip request: status %d", code)
	}
	if got := h.br.current(); got != breakerOpen {
		t.Fatalf("breaker %v, want open", got)
	}
	time.Sleep(150 * time.Millisecond)
	// Cooldown elapsed, faults still armed: the probe fails on the
	// primary, the batch is re-served... no — the probe batch itself
	// errors; the breaker re-opens and the member gets the error.
	fallbacks := h.resilient.Fallbacks()
	if code, _, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{0}}); code != http.StatusInternalServerError {
		t.Fatalf("failed probe: status %d, want 500", code)
	}
	if got := h.resilient.Fallbacks(); got != fallbacks {
		t.Errorf("probe batch ran the fallback ladder: %d fallbacks, want %d", got, fallbacks)
	}
	if got := h.br.current(); got != breakerOpen {
		t.Errorf("breaker %v after failed probe, want open", got)
	}
	// And while open, service continues degraded.
	if code, resp, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{0}}); code != http.StatusOK || !resp.Degraded {
		t.Errorf("post-probe request: status %d degraded=%v, want degraded 200", code, resp.Degraded)
	}
}

// TestDrain: readyz flips unready, new requests get 503, in-flight
// requests complete, and the workers exit.
func TestDrain(t *testing.T) {
	defer faultinject.Reset()
	s, err := New(Config{Models: []string{"GCN"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Hold one request in flight across the drain start.
	faultinject.Arm(faultinject.QueueStall, faultinject.Spec{After: 1, Limit: 1, Delay: 300 * time.Millisecond})
	inflightCode := make(chan int, 1)
	go func() {
		code, _, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{5}})
		inflightCode <- code
	}()
	time.Sleep(100 * time.Millisecond) // the worker is now stalled holding the request

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(5 * time.Second) }()
	// Readiness flips immediately, before the drain completes.
	deadline := time.Now().Add(time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped unready during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// New work is refused while draining.
	if code, _, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{0}}); code != http.StatusServiceUnavailable {
		t.Errorf("infer during drain: status %d, want 503", code)
	}
	// The in-flight request still completes, and the drain finishes.
	if code := <-inflightCode; code != http.StatusOK {
		t.Errorf("in-flight request during drain: status %d, want 200", code)
	}
	if err := <-drainErr; err != nil {
		t.Errorf("drain: %v", err)
	}
	select {
	case <-s.hosts["gcn"].done:
	case <-time.After(time.Second):
		t.Error("worker still running after drain")
	}
	// healthz keeps answering after drain (liveness is the process).
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after drain: %d", resp.StatusCode)
	}
}

// TestOneCompilePerModel: New compiles exactly one program per distinct
// model, however the names are spelled or repeated, and returns only once
// every worker has warmed up.
func TestOneCompilePerModel(t *testing.T) {
	compiles := telemetry.Default().Counter(metricCompiles)
	before := compiles.Value()
	s, _ := newTestServer(t, Config{Models: []string{"GCN", "gcn", "GAT", "GCN"}})
	if got := compiles.Value() - before; got != 2 {
		t.Errorf("%d compiles for models %v, want 2", got, s.order)
	}
	if len(s.hosts) != 2 {
		t.Errorf("%d hosts, want 2", len(s.hosts))
	}
	for _, h := range s.hosts {
		select {
		case <-h.warm:
		default:
			t.Errorf("New returned before %s's worker had warmed up", h.name)
		}
	}
}

// TestMetricsEndpoint: the Prometheus snapshot carries the serving series,
// including the per-window fallback gauge backed by Snapshot/Reset.
func TestMetricsEndpoint(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Models: []string{"GCN"}, BreakerThreshold: 1})
	h := s.hosts["gcn"]

	// Trip the breaker so a degraded batch records resilient fallbacks.
	faultinject.Arm(faultinject.KernelPanicLoad, faultinject.Spec{After: 1, Every: 1})
	postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{0}}) // trips
	code, _, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{0}})
	if code != http.StatusOK {
		t.Fatalf("degraded request: status %d", code)
	}
	window := h.resilient.Snapshot()
	if window == 0 {
		t.Fatal("no fallbacks in window before scrape")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, series := range []string{
		`ugrapher_serve_requests_total{model="GCN"}`,
		`ugrapher_serve_rejected_total{model="GCN"}`,
		`ugrapher_serve_batches_total{model="GCN"}`,
		`ugrapher_serve_degraded_total{model="GCN"}`,
		`ugrapher_serve_queue_depth{model="GCN"}`,
		`ugrapher_serve_breaker_state{model="GCN"}`,
		`ugrapher_fallbacks_total`,
		`ugrapher_kernel_isa{isa="` + vec.ISA() + `"} 1`,
		fmt.Sprintf(`ugrapher_program_arena_bytes{model="GCN"} %d`, h.prog.Stats().ArenaFloats*4),
		fmt.Sprintf(`ugrapher_program_packed_bytes{model="GCN"} %d`, h.prog.Stats().PackedFloats*4),
		`ugrapher_program_staging_bytes{model="GCN"} 0`,
		`ugrapher_program_slab_bytes{model="GCN"} 0`,
	} {
		if !bytes.Contains(body, []byte(series)) {
			t.Errorf("metrics snapshot missing %s", series)
		}
	}
	// The model listing names the same kernel set, and what the model's one
	// program cost to build.
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Kernels string
		Models  []struct {
			CompileMS float64 `json:"compile_ms"`
		}
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil || listing.Kernels != vec.ISA() {
		t.Errorf("/v1/models says kernels=%q (err %v), want %q", listing.Kernels, err, vec.ISA())
	}
	if len(listing.Models) != 1 || listing.Models[0].CompileMS <= 0 {
		t.Errorf("/v1/models compile_ms missing: %+v", listing.Models)
	}
	if want := fmt.Sprintf(`ugrapher_serve_fallback_window{model="GCN"} %d`, window); !bytes.Contains(body, []byte(want)) {
		t.Errorf("metrics snapshot missing %q\n(snapshot contains: %.300s...)", want, text)
	}
	// The scrape consumed the window; the lifetime counter is untouched.
	if h.resilient.Snapshot() != 0 {
		t.Error("scrape did not reset the fallback window")
	}
	if h.resilient.Fallbacks() != window {
		t.Errorf("lifetime fallbacks %d changed by scrape, want %d", h.resilient.Fallbacks(), window)
	}
}

// TestModelsEndpointListsRewrites: the model listing carries the compiler's
// dense-rewrite decisions for each program, accepted and rejected, so which
// rewrites a served model runs under is answerable from the daemon.
func TestModelsEndpointListsRewrites(t *testing.T) {
	_, ts := newTestServer(t, Config{Models: []string{"SMean"}})
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Models []struct {
			Name     string
			Rewrites []string
		}
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil || len(listing.Models) != 1 {
		t.Fatalf("/v1/models: %v, %+v", err, listing)
	}
	all := strings.Join(listing.Models[0].Rewrites, "\n")
	for _, want := range []string{
		"split-weight SageL1_w_concat: accepted under rule split-gemm",
		"commute-aggregate SageL1_Aggr: rejected: the weight does not narrow the aggregate",
		"commute-aggregate SageL2_Aggr: accepted under rule aggregate-commute",
		"gemm-epilogue SageL2_relu: accepted under rule dense-epilogue",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("rewrites of %s lack %q:\n%s", listing.Models[0].Name, want, all)
		}
	}

	// A row-resident region is one line of the same array: the head, the
	// rule, the stages that run in its chunks and the slabs they run on.
	_, ts = newTestServer(t, Config{Models: []string{"GAT"}})
	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil || len(listing.Models) != 1 || len(listing.Models[0].Rewrites) != 2 {
		t.Fatalf("/v1/models: %v, %+v; want GAT's two regions", err, listing)
	}
	for i, line := range listing.Models[0].Rewrites {
		head := fmt.Sprintf("row-resident GAT_L%d_Aggr: accepted under rule fusion-region", i+1)
		stages := fmt.Sprintf("5 interior stages in the row chunks (GAT_L%[1]d_MsgC, GAT_L%[1]d_MsgC epilogue, GAT_L%[1]d_softmax_sum, GAT_L%[1]d_softmax_div, GAT_L%[1]d_head_merge), slabs ", i+1)
		if !strings.HasPrefix(line, head) || !strings.Contains(line, stages) || !strings.HasSuffix(line, " KiB") {
			t.Errorf("rewrite line %d is %q", i, line)
		}
	}
}

// TestCustomFeaturesRunSolo: a request carrying its own feature matrix
// computes on those features (not the stored ones) and never coalesces
// with other requests.
func TestCustomFeaturesRunSolo(t *testing.T) {
	s, ts := newTestServer(t, Config{Models: []string{"GCN"}})

	// Oracle on custom features: all-ones input.
	g := s.Graph()
	x := tensor.NewDense(g.NumVertices(), 16)
	x.Fill(1)
	m, err := models.ByName("GCN")
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Forward(g, x, 8, models.NewHostEngine(core.ReferenceBackend()))
	if err != nil {
		t.Fatal(err)
	}

	feats := make([][]float32, g.NumVertices())
	for i := range feats {
		row := make([]float32, 16)
		for j := range row {
			row[j] = 1
		}
		feats[i] = row
	}
	code, resp, e := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{17}, Features: feats})
	if code != http.StatusOK {
		t.Fatalf("status %d (%s)", code, e.Error)
	}
	if resp.Batched != 1 {
		t.Errorf("feature-bearing request batched %d, want 1 (solo)", resp.Batched)
	}
	row := want.Data[17*want.Cols : 18*want.Cols]
	if d := maxAbsDiff(resp.Logits[0], row); d > 1e-4 {
		t.Errorf("custom-features output maxdiff %g vs reference", d)
	}
}
