package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// Request-scoped tracing through the serving pipeline: identity adoption from
// inbound headers, the per-request timing breakdown, and the connected span
// tree behind /debug/requests.

func TestTraceIdentityAdoption(t *testing.T) {
	mk := func(hdr map[string]string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/infer", nil)
		for k, v := range hdr {
			r.Header.Set(k, v)
		}
		return r
	}

	// W3C traceparent: the low 64 bits of the trace id and the parent span id
	// are adopted verbatim.
	trace, parent := traceIdentity(mk(map[string]string{
		"traceparent": "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
	}))
	if trace != 0x8448eb211c80319c || parent != 0xb7ad6b7169203331 {
		t.Errorf("traceparent adopted as %x/%x, want 8448eb211c80319c/b7ad6b7169203331", trace, parent)
	}

	// Malformed traceparent falls through (here: to nothing).
	for _, bad := range []string{
		"not-a-traceparent",
		"00-short-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-xxxx-01",
	} {
		if tr, _ := traceIdentity(mk(map[string]string{"traceparent": bad})); tr != 0 {
			t.Errorf("malformed traceparent %q yielded trace %x, want 0", bad, tr)
		}
	}

	// X-Request-ID hashes deterministically: same header, same trace id.
	a, p1 := traceIdentity(mk(map[string]string{"X-Request-ID": "req-123"}))
	b, _ := traceIdentity(mk(map[string]string{"X-Request-ID": "req-123"}))
	c, _ := traceIdentity(mk(map[string]string{"X-Request-ID": "req-124"}))
	if a == 0 || a != b || a == c || p1 != 0 {
		t.Errorf("X-Request-ID mapping: %x/%x/%x parent=%x", a, b, c, p1)
	}

	// No headers: mint locally (0,0).
	if tr, pa := traceIdentity(mk(nil)); tr != 0 || pa != 0 {
		t.Errorf("headerless request yielded %x/%x, want 0/0", tr, pa)
	}
}

// TestTracedRequestBreakdownAndDebugEndpoint drives one traced request
// through the live pipeline and checks the three request-scoped outputs: the
// X-Trace-Id header, the timing breakdown in the JSON body, and the span tree
// retained behind /debug/requests — with every stage attributed and every
// parent link resolving.
func TestTracedRequestBreakdownAndDebugEndpoint(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	telemetry.SetEnabled(true)

	_, ts := newTestServer(t, Config{Models: []string{"GCN"}})
	code, resp, _ := postInfer(t, ts.URL, inferRequest{Model: "GCN", Vertices: []int{0, 7}})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Timing == nil {
		t.Fatal("traced 200 carries no timing breakdown")
	}
	tb := resp.Timing
	if tb.TraceID == "" || len(tb.TraceID) != 16 {
		t.Errorf("timing trace_id %q, want 16 hex chars", tb.TraceID)
	}
	if tb.TotalMS <= 0 {
		t.Errorf("total_ms %v, want > 0", tb.TotalMS)
	}
	sum := tb.AdmissionMS + tb.QueueWaitMS + tb.KernelMS + tb.RespondMS
	if sum > tb.TotalMS+0.5 {
		t.Errorf("stage sum %.3fms exceeds total %.3fms", sum, tb.TotalMS)
	}
	if tb.KernelMS <= 0 {
		t.Errorf("kernel_ms %v, want > 0 (the forward pass ran)", tb.KernelMS)
	}

	// /debug/requests retains the request with a connected tree.
	r2, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	var dbg struct {
		RequestsSeen int64          `json:"requests_seen"`
		Slowest      []debugRequest `json:"slowest"`
	}
	if err := json.Unmarshal(raw, &dbg); err != nil {
		t.Fatalf("debug endpoint not JSON: %v\n%s", err, raw)
	}
	if dbg.RequestsSeen != 1 || len(dbg.Slowest) != 1 {
		t.Fatalf("debug store: seen=%d slowest=%d, want 1 and 1", dbg.RequestsSeen, len(dbg.Slowest))
	}
	ex := dbg.Slowest[0]
	if ex.TraceID != tb.TraceID || ex.Model != "GCN" || ex.Status != "ok" {
		t.Errorf("exemplar identity %s/%s/%s, want %s/GCN/ok", ex.TraceID, ex.Model, ex.Status, tb.TraceID)
	}
	stages := map[string]bool{}
	for _, st := range ex.Stages {
		stages[st.Stage] = true
	}
	for _, want := range []string{"admission", "queue_wait", "kernel", "respond"} {
		if !stages[want] {
			t.Errorf("exemplar missing stage %q (got %v)", want, ex.Stages)
		}
	}
	// One root (the request span) and the whole pipeline nested under it:
	// forward → program run → steps → kernels all resolve as descendants.
	if len(ex.Spans) != 1 {
		t.Fatalf("span tree has %d roots, want 1 connected tree:\n%s", len(ex.Spans), raw)
	}
	var cats []string
	var walk func(n *debugSpan)
	walk = func(n *debugSpan) {
		cats = append(cats, n.Cat)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(ex.Spans[0])
	seen := map[string]bool{}
	for _, c := range cats {
		seen[c] = true
	}
	for _, want := range []string{"request", "stage", "forward", "run", "step", "kernel"} {
		if !seen[want] {
			t.Errorf("span tree missing a %q span (categories: %v)", want, cats)
		}
	}
}

// TestErrorRequestsLandInExemplarErrors: a failed request is retained in the
// error ring with its status, not competing with the slow set.
func TestErrorRequestsLandInExemplarErrors(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	telemetry.SetEnabled(true)

	s, ts := newTestServer(t, Config{Models: []string{"GCN"}})
	if code, _, _ := postInfer(t, ts.URL, inferRequest{Model: "nope", Vertices: []int{0}}); code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
	_, errs := s.exemplars.Snapshot()
	if len(errs) != 1 || errs[0].Status != "error" || errs[0].Err == "" {
		t.Fatalf("error ring %+v, want one error exemplar with text", errs)
	}
}

// TestUntracedPathUnchanged: with telemetry disabled the response carries no
// timing block, no X-Trace-Id header, and the exemplar store stays empty —
// the disabled path does no tracing work.
func TestUntracedPathUnchanged(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)

	s, ts := newTestServer(t, Config{Models: []string{"GCN"}})
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json",
		strings.NewReader(`{"model":"GCN","vertices":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Trace-Id") != "" {
		t.Error("untraced response carries X-Trace-Id")
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if _, ok := out["timing"]; ok {
		t.Error("untraced response carries a timing block")
	}
	if s.exemplars.Seen() != 0 {
		t.Error("untraced request offered to the exemplar store")
	}
}
