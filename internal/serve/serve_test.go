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
// the reference interpreter computes for those vertices, on the stored
// features and on a feature matrix the request carries.
func TestInferMatchesReference(t *testing.T) {
	s, ts := newTestServer(t, Config{Models: []string{"GCN"}})
	stored := referenceLogits(t, "GCN", "CO", 16, 8)

	// Caller-supplied features: all ones.
	g := s.g
	ones := tensor.NewDense(g.NumVertices(), 16)
	ones.Fill(1)
	m, err := models.ByName("GCN")
	if err != nil {
		t.Fatal(err)
	}
	onOnes, err := m.Forward(g, ones, 8, models.NewHostEngine(core.ReferenceBackend()))
	if err != nil {
		t.Fatal(err)
	}
	feats := make([][]float32, ones.Rows)
	for i := range feats {
		feats[i] = ones.Row(i)
	}

	for _, c := range []struct {
		name     string
		vertices []int
		features [][]float32
		want     *tensor.Dense
	}{
		{"stored", []int{0, 7, 100, 2707}, nil, stored},
		{"caller features", []int{17}, feats, onOnes},
	} {
		code, resp, e := postInfer(t, ts.URL, inferRequest{Model: "gcn", Vertices: c.vertices, Features: c.features})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", c.name, code, e.Error)
		}
		if resp.Degraded {
			t.Errorf("%s: healthy server answered degraded", c.name)
		}
		if len(resp.Logits) != len(c.vertices) {
			t.Fatalf("%s: got %d rows, want %d", c.name, len(resp.Logits), len(c.vertices))
		}
		for i, v := range c.vertices {
			if d := maxAbsDiff(resp.Logits[i], c.want.Row(v)); d > 1e-4 {
				t.Errorf("%s, vertex %d: maxdiff %g vs reference", c.name, v, d)
			}
		}
	}
}

// TestCustomFeaturesRunSolo: a request that carries its own feature matrix
// runs as one forward pass of its own and answers like the reference
// interpreter on those features.
func TestCustomFeaturesRunSolo(t *testing.T) {
	s, ts := newTestServer(t, Config{Models: []string{"GCN"}})

	// Oracle on custom features: all-ones input.
	g := s.g
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
		feats[i] = x.Row(i)
	}
	h := s.hosts["gcn"]
	passes0 := h.m.batches.Value()
	code, resp, e := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{17}, Features: feats})
	if code != http.StatusOK {
		t.Fatalf("status %d (%s)", code, e.Error)
	}
	if n := h.m.batches.Value() - passes0; n != 1 {
		t.Errorf("feature-bearing request ran %d forward passes, want 1 (solo)", n)
	}
	if d := maxAbsDiff(resp.Logits[0], want.Row(17)); d > 1e-4 {
		t.Errorf("custom-features output maxdiff %g vs reference", d)
	}
}

// TestTimeoutMSClampedBeforeConversion: a timeout_ms past what
// time.Duration holds is clamped to the server maximum, not wrapped to a
// negative deadline that answers 504 at once.
func TestTimeoutMSClampedBeforeConversion(t *testing.T) {
	_, ts := newTestServer(t, Config{Models: []string{"GCN"}})
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json",
		strings.NewReader(`{"model":"GCN","vertices":[0],"timeout_ms":10000000000000}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200 under the clamped 30 s deadline", resp.StatusCode, raw)
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
	// Features at the edge of float32 overflow in the pass: a 200 could not
	// carry the logits (JSON has no infinity), so the request is refused.
	huge := make([][]float32, 2708)
	for i := range huge {
		huge[i] = make([]float32, 16)
		for j := range huge[i] {
			huge[i][j] = 3e38
		}
	}
	code, _, e = postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{0, 1}, Features: huge})
	if code != http.StatusBadRequest {
		t.Errorf("features that overflow the pass: status %d (%s)", code, e.Error)
	}
}

// TestQueueFullRejectsFast: with the worker stalled and the bounded queue
// full, further requests are rejected immediately with 429 + Retry-After
// instead of queuing without bound.
func TestQueueFullRejectsFast(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Models: []string{"GCN"}, QueueDepth: 2})

	// The worker stalls 400ms on the first request; everything sent during
	// the stall sits in (or overflows) the queue.
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

// TestMemberTimeoutDoesNotWedgeWorker: a request whose deadline lapses while
// its worker is stalled gets its 504 at the deadline, not when the worker
// gets to it, and the worker keeps serving.
func TestMemberTimeoutDoesNotWedgeWorker(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Models: []string{"GCN"}})
	_, _, passes := forwardModes(s.hosts["gcn"])

	faultinject.Arm(faultinject.QueueStall, faultinject.Spec{After: 1, Limit: 1, Delay: 300 * time.Millisecond})
	start := time.Now()
	code, _, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{0}, TimeoutMS: 50})
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	if elapsed > 250*time.Millisecond {
		t.Errorf("504 delivered after %v; the request deadline must not wait out the stalled worker", elapsed)
	}
	// The worker survived the timed-out member, whose pass ended in the
	// deadline and was not retried: one pass each.
	code, _, _ = postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{0}})
	if code != http.StatusOK {
		t.Fatalf("follow-up status %d; worker wedged?", code)
	}
	if _, _, n := forwardModes(s.hosts["gcn"]); n != passes+2 {
		t.Errorf("the timed-out request and the follow-up ran %d forward passes, want 2", n-passes)
	}
}

// TestNumericErrorRunsOnePass: only a *core.KernelError earns the full pass
// on the ladder; a numeric failure would fail it the same way, so the request
// fails after its one pass.
func TestNumericErrorRunsOnePass(t *testing.T) {
	defer faultinject.Reset()
	core.SetCheckNumerics(true)
	defer core.SetCheckNumerics(false)
	s, ts := newTestServer(t, Config{Models: []string{"GCN"}})
	h := s.hosts["gcn"]

	_, _, passes := forwardModes(h)
	faultinject.Arm(faultinject.NaNPoke, faultinject.Spec{After: 1})
	code, _, e := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{3}})
	if code != http.StatusInternalServerError || !strings.Contains(e.Error, "numeric guard") {
		t.Fatalf("status %d (%s), want 500 from the numeric guard", code, e.Error)
	}
	if _, _, n := forwardModes(h); n != passes+1 {
		t.Errorf("a numeric failure ran %d forward passes, want 1", n-passes)
	}
	if n := h.resilient.Fallbacks(); n != 0 {
		t.Errorf("a numeric failure fell back %d times", n)
	}
}

// TestEveryFailingRequestDegradesUntilKernelsHeal: while every primary kernel
// run panics, each request — the first one too — is a degraded 200 with the
// reference interpreter's logits, counted once in the degraded series and
// backed by ladder fallbacks. Once the kernels heal, the next request is a
// clean row run and the degraded series stands still.
func TestEveryFailingRequestDegradesUntilKernelsHeal(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Models: []string{"GCN"}})
	h := s.hosts["gcn"]
	want := referenceLogits(t, "GCN", "CO", 16, 8)
	vertices := []int{3, 42}
	degraded0 := h.m.degraded.Value()

	// The reference interpreter (the ladder's fallback rung) is untouched by
	// KernelPanicLoad.
	faultinject.Arm(faultinject.KernelPanicLoad, faultinject.Spec{After: 1, Every: 1})
	const failing = 3
	for i := 0; i < failing; i++ {
		code, resp, e := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: vertices})
		if code != http.StatusOK || !resp.Degraded {
			t.Fatalf("failing request %d: status %d degraded=%v (%s), want a degraded 200", i, code, resp.Degraded, e.Error)
		}
		for j, v := range vertices {
			if d := maxAbsDiff(resp.Logits[j], want.Row(v)); d > 1e-4 {
				t.Errorf("failing request %d vertex %d: maxdiff %g vs reference", i, v, d)
			}
		}
	}
	if n := h.m.degraded.Value(); n != degraded0+failing {
		t.Errorf("degraded counter moved by %d over %d failing requests", n-degraded0, failing)
	}
	if h.resilient.Fallbacks() == 0 {
		t.Error("the degraded passes recorded no ladder fallbacks")
	}

	faultinject.Reset()
	rows0, _, _ := forwardModes(h)
	code, resp, e := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: vertices})
	if code != http.StatusOK || resp.Degraded {
		t.Fatalf("after the kernels heal: status %d degraded=%v (%s), want a clean 200", code, resp.Degraded, e.Error)
	}
	if rows, _, _ := forwardModes(h); rows != rows0+1 {
		t.Error("the healed request was not a row run")
	}
	if n := h.m.degraded.Value(); n != degraded0+failing {
		t.Errorf("the healed request moved the degraded counter to %d", n-degraded0)
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
// including the per-window fallback gauge backed by Reset.
func TestMetricsEndpoint(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Models: []string{"GCN"}})
	h := s.hosts["gcn"]

	// A failing kernel so a degraded pass records resilient fallbacks.
	faultinject.Arm(faultinject.KernelPanicLoad, faultinject.Spec{After: 1, Every: 1})
	code, _, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{0}})
	if code != http.StatusOK {
		t.Fatalf("degraded request: status %d", code)
	}
	window := h.resilient.Fallbacks() // no scrape yet: the window is the lifetime count
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
	if h.resilient.Reset() != 0 {
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
