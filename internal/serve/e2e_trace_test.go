// End-to-end tracing tests: run the real daemon and prove the observability
// guarantees from the outside — an injected handler stall shows up in the
// right stage of the request's own breakdown, the Prometheus snapshot carries
// every serving series, pprof lives only on the -debug-addr listener, and the
// -trace file written after drain holds one connected span tree per request.
package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

type e2eTiming struct {
	TraceID     string  `json:"trace_id"`
	AdmissionMS float64 `json:"admission_ms"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	BatchWaitMS float64 `json:"batch_wait_ms"`
	KernelMS    float64 `json:"kernel_ms"`
	RespondMS   float64 `json:"respond_ms"`
	TotalMS     float64 `json:"total_ms"`
}

// inferTimed posts one request and decodes the timing block too.
func inferTimed(t *testing.T, d *daemon, req e2eInferRequest) (int, e2eTiming, http.Header) {
	t.Helper()
	var out struct {
		Timing *e2eTiming `json:"timing"`
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(d.url("/v1/infer"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad 200 body %q: %v", raw, err)
		}
		if out.Timing == nil {
			t.Fatalf("daemon response carries no timing block: %s", raw)
		}
		return resp.StatusCode, *out.Timing, resp.Header
	}
	return resp.StatusCode, e2eTiming{}, resp.Header
}

// TestE2ESlowHandlerAttributedToAdmission: a 300ms stall injected into the
// HTTP handler — before the queue, before any kernel — must land in the
// admission stage of that request's own breakdown and span tree, not smear
// into queue_wait or kernel time.
func TestE2ESlowHandlerAttributedToAdmission(t *testing.T) {
	d := startDaemon(t, "-models", "GCN",
		"-faults", "slow-handler:delay=300ms,limit=1")

	code, tb, hdr := inferTimed(t, d, e2eInferRequest{Model: "GCN", Vertices: []int{0}, TimeoutMS: 10000})
	if code != http.StatusOK {
		t.Fatalf("status %d (output:\n%s)", code, d.output())
	}
	if got := hdr.Get("X-Trace-Id"); len(got) != 16 || got != tb.TraceID {
		t.Errorf("X-Trace-Id %q vs timing trace_id %q; must match", got, tb.TraceID)
	}
	if tb.AdmissionMS < 280 {
		t.Errorf("admission_ms = %.1f, want >= 280 (the 300ms stall fires inside admission)", tb.AdmissionMS)
	}
	for stage, ms := range map[string]float64{
		"queue_wait": tb.QueueWaitMS, "kernel": tb.KernelMS, "respond": tb.RespondMS,
	} {
		if ms > 200 {
			t.Errorf("%s_ms = %.1f; the handler stall leaked out of admission", stage, ms)
		}
	}
	if tb.TotalMS < tb.AdmissionMS {
		t.Errorf("total_ms %.1f < admission_ms %.1f", tb.TotalMS, tb.AdmissionMS)
	}

	// The same attribution is visible to operators via /debug/requests.
	resp, err := http.Get(d.url("/debug/requests"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var dbg struct {
		Slowest []struct {
			TraceID string `json:"trace_id"`
			Stages  []struct {
				Stage string  `json:"stage"`
				MS    float64 `json:"ms"`
			} `json:"stages"`
		} `json:"slowest"`
	}
	if err := json.Unmarshal(raw, &dbg); err != nil {
		t.Fatalf("debug endpoint not JSON: %v\n%s", err, raw)
	}
	if len(dbg.Slowest) == 0 {
		t.Fatalf("debug store retained nothing:\n%s", raw)
	}
	found := false
	for _, ex := range dbg.Slowest {
		if ex.TraceID != tb.TraceID {
			continue
		}
		found = true
		for _, st := range ex.Stages {
			if st.Stage == "admission" && st.MS < 280 {
				t.Errorf("exemplar admission stage %.1fms, want >= 280", st.MS)
			}
		}
	}
	if !found {
		t.Errorf("trace %s not retained in /debug/requests:\n%s", tb.TraceID, raw)
	}
}

// TestE2EMetricsCarryTracingSeries: after traffic, one scrape holds every
// serving series this PR added — the six stage histograms, the batch-size
// distribution, build info and the trace-drop counter.
func TestE2EMetricsCarryTracingSeries(t *testing.T) {
	d := startDaemon(t, "-models", "GCN")
	if code, _, _ := infer(t, d, e2eInferRequest{Model: "GCN", Vertices: []int{0, 1, 2}}); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}

	resp, err := http.Get(d.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		`ugrapher_serve_stage_seconds_bucket{model="GCN",stage="admission",le="+Inf"}`,
		`ugrapher_serve_stage_seconds_bucket{model="GCN",stage="queue_wait",le="+Inf"}`,
		`ugrapher_serve_stage_seconds_bucket{model="GCN",stage="batch_wait",le="+Inf"}`,
		`ugrapher_serve_stage_seconds_bucket{model="GCN",stage="kernel",le="+Inf"}`,
		`ugrapher_serve_stage_seconds_bucket{model="GCN",stage="respond",le="+Inf"}`,
		`ugrapher_serve_stage_seconds_count{model="GCN",stage="compile"} 1`,
		`ugrapher_serve_batch_size_bucket{model="GCN",le="1"}`,
		`ugrapher_serve_batch_size_count{model="GCN"}`,
		`ugrapher_serve_request_seconds_bucket{model="GCN",le="+Inf"} 1`,
		`ugrapher_build_info{version=`,
		`backend="parallel"} 1`,
		`ugrapher_trace_events_dropped_total`,
	} {
		if !bytes.Contains(metrics, []byte(series)) {
			t.Errorf("metrics missing %q", series)
		}
	}
	// The kernel stage saw the one request.
	if !bytes.Contains(metrics, []byte(`ugrapher_serve_stage_seconds_count{model="GCN",stage="kernel"} 1`)) {
		t.Errorf("kernel stage count wrong:\n%.2000s", metrics)
	}
}

// TestE2EPprofOnlyOnDebugListener: -debug-addr opens a second listener
// carrying net/http/pprof; the serving port must not expose it.
func TestE2EPprofOnlyOnDebugListener(t *testing.T) {
	d := startDaemon(t, "-models", "GCN", "-debug-addr", "127.0.0.1:0")

	// The debug handshake line lands in the captured output after startup.
	var debugAddr string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && debugAddr == "" {
		for _, line := range strings.Split(d.output(), "\n") {
			if a, ok := strings.CutPrefix(line, "debug listening on "); ok {
				debugAddr = a
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if debugAddr == "" {
		t.Fatalf("daemon never printed the debug handshake:\n%s", d.output())
	}

	resp, err := http.Get("http://" + debugAddr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index on debug listener: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof index: status %d, body %.200q", resp.StatusCode, body)
	}

	// Never on the serving port.
	if code := getStatus(t, d, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("serving port answers /debug/pprof/ with %d, want 404", code)
	}
	// But the request-exemplar debug view is part of the service surface.
	if code := getStatus(t, d, "/debug/requests"); code != http.StatusOK {
		t.Errorf("/debug/requests on serving port: %d, want 200", code)
	}
}

// TestE2ETraceFileConnectedSpanTrees: the acceptance criterion for the
// tentpole — run traced traffic (including a coalesced batch), drain via
// SIGTERM, and verify the written Chrome trace: valid JSON, every traced
// span's parent resolving within its trace, flow arrows in bound pairs, and
// async shadow pairs grouping each request.
func TestE2ETraceFileConnectedSpanTrees(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "serve-trace.json")
	// The stall fires on the second batch: the adopted request runs clean,
	// then the first burst member stalls its worker long enough for the
	// remaining members to coalesce behind it.
	d := startDaemon(t, "-models", "GCN", "-trace", tracePath,
		"-faults", "queue-stall:after=2,limit=1,delay=300ms")

	// A traced request with an adopted W3C identity...
	body := []byte(`{"model":"GCN","vertices":[0]}`)
	req, _ := http.NewRequest(http.MethodPost, d.url("/v1/infer"), bytes.NewReader(body))
	req.Header.Set("traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	adopted := resp.Header.Get("X-Trace-Id")
	if adopted != "8448eb211c80319c" {
		t.Fatalf("X-Trace-Id %q, want adopted 8448eb211c80319c", adopted)
	}
	// ...then a burst that coalesces behind the stalled worker.
	done := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func(v int) {
			code, _, _ := infer(t, d, e2eInferRequest{Model: "GCN", Vertices: []int{v}, TimeoutMS: 10000})
			done <- code
		}(i)
	}
	for i := 0; i < 4; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("burst request: status %d", code)
		}
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.waited:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, d.output())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace file not written: %v\n%s", err, d.output())
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			ID   string            `json:"id"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}

	// Index every span id per trace, then check every parent link resolves
	// in the same trace (parents recorded as span args by the exporter).
	spanIDs := map[string]map[string]bool{} // trace_id -> span_id set
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" || ev.Args["trace_id"] == "" {
			continue
		}
		tr := ev.Args["trace_id"]
		if spanIDs[tr] == nil {
			spanIDs[tr] = map[string]bool{}
		}
		spanIDs[tr][ev.Args["span_id"]] = true
	}
	if len(spanIDs) < 5 { // adopted + 4 burst members
		t.Fatalf("trace holds %d traced requests, want >= 5", len(spanIDs))
	}
	if spanIDs[strings.TrimLeft(adopted, "0")] == nil && spanIDs[adopted] == nil {
		t.Errorf("adopted trace %s missing from the file (traces: %v)", adopted, len(spanIDs))
	}
	cats := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" || ev.Args["trace_id"] == "" {
			continue
		}
		cats[ev.Cat] = true
		parent := ev.Args["parent_id"]
		if parent == "" {
			continue // a root span
		}
		if ids := spanIDs[ev.Args["trace_id"]]; !ids[parent] && parent != "b7ad6b7169203331" {
			t.Errorf("span %q (trace %s) parent %s resolves nowhere — tree disconnected",
				ev.Name, ev.Args["trace_id"], parent)
		}
	}
	for _, want := range []string{"request", "stage", "batch", "run", "step", "kernel"} {
		if !cats[want] {
			t.Errorf("trace missing %q spans (got %v)", want, cats)
		}
	}

	// Flow arrows come in bound pairs (the coalesced batch fan-in), and every
	// traced span has its async shadow pair.
	flows := map[string][2]int{}
	async := map[string][2]int{}
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "s":
			c := flows[ev.ID]
			c[0]++
			flows[ev.ID] = c
		case "f":
			c := flows[ev.ID]
			c[1]++
			flows[ev.ID] = c
		case "b":
			c := async[ev.ID]
			c[0]++
			async[ev.ID] = c
		case "e":
			c := async[ev.ID]
			c[1]++
			async[ev.ID] = c
		}
	}
	if len(flows) == 0 {
		t.Error("no flow arrows in the trace despite a coalesced batch")
	}
	for id, c := range flows {
		if c[0] != c[1] {
			t.Errorf("flow %s has %d starts and %d finishes", id, c[0], c[1])
		}
	}
	if len(async) < 5 {
		t.Errorf("async request groups: %d, want >= 5 (one per traced request)", len(async))
	}
	for id, c := range async {
		if c[0] != c[1] {
			t.Errorf("async group %s has %d begins and %d ends", id, c[0], c[1])
		}
	}
}
