package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/models"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// forwardModes reads one model's forward-mode and forward-pass counters. The series
// live in the process-wide registry, so a test that has not just reset it
// compares two readings.
func forwardModes(h *modelHost) (rows, full, passes int64) {
	return h.m.forwardRows.Value(), h.m.forwardFull.Value(), h.m.batches.Value()
}

// TestRequestRunsItsClosure: a healthy daemon answers a stored-feature request
// and a caller-supplied-feature request by a row-subset run of the requested
// rows' closure — counted, histogrammed, visible on /v1/models — with the
// reference interpreter's logits.
func TestRequestRunsItsClosure(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	telemetry.SetEnabled(true)
	s, ts := newTestServer(t, Config{Models: []string{"GCN", "GAT"}})
	g := s.g

	for _, name := range []string{"GCN", "GAT"} {
		h := s.hosts[strings.ToLower(name)]
		if ok, why := h.prog.RowsCapable(); !ok {
			t.Fatalf("%s: the served program is not rows-capable: %s", name, why)
		}
		want := referenceLogits(t, name, "CO", 16, 8)
		vertices := []int{2707, 7, 100, 7}
		code, resp, e := postInfer(t, ts.URL, wireRequest{Model: name, Vertices: vertices})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", name, code, e.Error)
		}
		for i, v := range vertices {
			if d := maxAbsDiff(resp.Logits[i], want.Row(v)); d > 1e-4 {
				t.Errorf("%s vertex %d: maxdiff %g vs reference", name, v, d)
			}
		}
		if rows, full, passes := forwardModes(h); rows != 1 || full != 0 || passes != 1 {
			t.Errorf("%s: forward modes rows=%d full=%d over %d passes after one small request, want 1/0 over 1", name, rows, full, passes)
		}
		if n := h.m.closureRows.Count(); n != 1 {
			t.Errorf("%s: closure-rows histogram holds %d observations, want 1", name, n)
		}
		if closure := h.m.closureRows.SumSeconds(); closure < 3 || closure >= float64(g.NumVertices())/4 {
			t.Errorf("%s: |R_0| = %v for three distinct rows on a %d-vertex graph", name, closure, g.NumVertices())
		}
	}

	// Caller-supplied features: the closure's rows are read from the request's
	// matrix, not the stored one.
	x := tensor.NewDense(g.NumVertices(), 16)
	x.FillRandom(rand.New(rand.NewSource(9)), 1)
	gcn, _ := models.ByName("GCN")
	want, err := models.ForwardCtx(context.Background(), gcn, g, x, 8, models.NewHostEngine(core.ReferenceBackend()))
	if err != nil {
		t.Fatal(err)
	}
	feats := make([][]float32, x.Rows)
	for i := range feats {
		feats[i] = x.Row(i)
	}
	code, resp, e := postInfer(t, ts.URL, wireRequest{Model: "GCN", Vertices: []int{17, 1500}, Features: feats})
	if code != http.StatusOK {
		t.Fatalf("custom features: status %d (%s)", code, e.Error)
	}
	for i, v := range []int{17, 1500} {
		if d := maxAbsDiff(resp.Logits[i], want.Row(v)); d > 1e-4 {
			t.Errorf("custom features, vertex %d: maxdiff %g vs reference", v, d)
		}
	}
	if rows, full, _ := forwardModes(s.hosts["gcn"]); rows != 2 || full != 0 {
		t.Errorf("forward modes rows=%d full=%d after the custom-feature request, want 2/0", rows, full)
	}

	// /v1/models and /metrics say so.
	r, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Models []struct {
			Name         string `json:"name"`
			RowsCapable  bool   `json:"rows_capable"`
			RowsDeclined string `json:"rows_declined"`
		} `json:"models"`
	}
	err = json.NewDecoder(r.Body).Decode(&listing)
	r.Body.Close()
	if err != nil || len(listing.Models) != 2 {
		t.Fatalf("/v1/models: %v, %+v", err, listing)
	}
	for _, m := range listing.Models {
		if !m.RowsCapable || m.RowsDeclined != "" {
			t.Errorf("/v1/models lists %s as rows_capable=%v (%q)", m.Name, m.RowsCapable, m.RowsDeclined)
		}
	}
	r, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var page bytes.Buffer
	_, _ = page.ReadFrom(r.Body)
	r.Body.Close()
	for _, series := range []string{
		`ugrapher_serve_forward_mode_total{model="GCN",mode="rows"} 2`,
		`ugrapher_serve_forward_mode_total{model="GCN",mode="full"} 0`,
		`ugrapher_serve_closure_rows_count{model="GAT"} 1`,
	} {
		if !strings.Contains(page.String(), series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}
}

// TestOnePassPerRequest: every request is its own forward pass. N sequential
// requests add exactly N to ugrapher_serve_batches_total and to
// forward_mode_total{mode="rows"}; so do N requests queued together behind a
// stalled worker, which a batching worker would have merged.
func TestOnePassPerRequest(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{Models: []string{"GCN"}})
	h := s.hosts["gcn"]
	check := func(what string, n int64, rows0, full0, passes0 int64) {
		t.Helper()
		rows, full, passes := forwardModes(h)
		if passes-passes0 != n || rows-rows0 != n || full != full0 {
			t.Errorf("%s: %d requests moved passes by %d, rows by %d, full by %d; want %d, %d, 0",
				what, n, passes-passes0, rows-rows0, full-full0, n, n)
		}
	}

	const n = 7
	rows0, full0, passes0 := forwardModes(h)
	for i := 0; i < n; i++ {
		if code, _, e := postInfer(t, ts.URL, wireRequest{Model: "GCN", Vertices: []int{i, 100 + i}}); code != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, code, e.Error)
		}
	}
	check("sequential", n, rows0, full0, passes0)

	rows0, full0, passes0 = forwardModes(h)
	faultinject.Arm(faultinject.QueueStall, faultinject.Spec{After: 1, Limit: 1, Delay: 200 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			if code, _, e := postInfer(t, ts.URL, wireRequest{Model: "GCN", Vertices: []int{v}}); code != http.StatusOK {
				t.Errorf("queued request %d: status %d (%s)", v, code, e.Error)
			}
		}(i)
	}
	wg.Wait()
	check("queued behind a stall", n, rows0, full0, passes0)
}

// TestShardedDaemonRunsRowsLikeTheFlatOne: a daemon at four shards is
// rows-capable, answers small stored-feature requests by row runs, and its
// logits are the flat daemon's to the bit — GAT's row-resident regions
// included.
func TestShardedDaemonRunsRowsLikeTheFlatOne(t *testing.T) {
	_, flatTS := newTestServer(t, Config{Models: []string{"GCN", "GAT"}})
	s, ts := newTestServer(t, Config{Models: []string{"GCN", "GAT"}, Shards: 4})
	vertices := []int{3, 7, 100, 2000}
	for _, name := range []string{"GCN", "GAT"} {
		h := s.hosts[strings.ToLower(name)]
		if ok, why := h.prog.RowsCapable(); !ok || h.prog.Stats().Shards != 4 {
			t.Fatalf("%s: sharded program rows-capable=%v (%q) at %d shards", name, ok, why, h.prog.Stats().Shards)
		}
		code, want, e := postInfer(t, flatTS.URL, wireRequest{Model: name, Vertices: vertices})
		if code != http.StatusOK {
			t.Fatalf("%s flat: status %d (%s)", name, code, e.Error)
		}
		rows0, full0, _ := forwardModes(h)
		code, resp, e := postInfer(t, ts.URL, wireRequest{Model: name, Vertices: vertices})
		if code != http.StatusOK {
			t.Fatalf("%s sharded: status %d (%s)", name, code, e.Error)
		}
		if rows, full, _ := forwardModes(h); rows != rows0+1 || full != full0 {
			t.Errorf("%s: forward modes moved by rows=%d full=%d, want 1/0", name, rows-rows0, full-full0)
		}
		for i, v := range vertices {
			for j, got := range resp.Logits[i] {
				if math.Float32bits(got) != math.Float32bits(want.Logits[i][j]) {
					t.Fatalf("%s vertex %d logit %d: sharded %v, flat %v", name, v, j, got, want.Logits[i][j])
				}
			}
		}
	}
}

// TestFailedRowRunRetriesAsFullPass: from the first failing kernel, a
// request whose row run fails is answered by one full pass on the fallback
// ladder — degraded, with the reference interpreter's logits, counted as a
// full pass and not as a row run — for GCN and for GAT, whose row-resident
// regions rerun as their recorded steps. The request's trace holds the failed
// row run and the full pass as two forward spans.
func TestFailedRowRunRetriesAsFullPass(t *testing.T) {
	defer faultinject.Reset()
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	telemetry.SetEnabled(true)
	s, ts := newTestServer(t, Config{Models: []string{"GCN", "GAT"}})
	vertices := []int{3, 42, 2000}
	for _, name := range []string{"GCN", "GAT"} {
		h := s.hosts[strings.ToLower(name)]
		want := referenceLogits(t, name, "CO", 16, 8)
		rows0, full0, passes0 := forwardModes(h)
		degraded0 := h.m.degraded.Value()

		faultinject.Arm(faultinject.KernelPanicLoad, faultinject.Spec{After: 1, Every: 1})
		code, resp, e := postInfer(t, ts.URL, wireRequest{Model: name, Vertices: vertices})
		if code != http.StatusOK || !resp.Degraded {
			t.Fatalf("%s: first failing request: status %d degraded=%v (%s), want a degraded 200", name, code, resp.Degraded, e.Error)
		}
		for i, v := range vertices {
			if d := maxAbsDiff(resp.Logits[i], want.Row(v)); d > 1e-4 {
				t.Errorf("%s degraded vertex %d: maxdiff %g vs reference", name, v, d)
			}
		}
		if rows, full, passes := forwardModes(h); rows != rows0 || full != full0+1 || passes != passes0+2 {
			t.Errorf("%s: forward modes moved by rows=%d full=%d over %d passes, want 0/1 over 2", name, rows-rows0, full-full0, passes-passes0)
		}
		if n := h.m.degraded.Value(); n != degraded0+1 {
			t.Errorf("%s: degraded counter moved by %d, want 1", name, n-degraded0)
		}
		if h.resilient.Fallbacks() == 0 {
			t.Errorf("%s: the degraded full pass recorded no ladder fallbacks", name)
		}
		var forwards []string
		slowest, _ := s.exemplars.Snapshot()
		for _, ex := range slowest {
			if fmt.Sprintf("%016x", ex.TraceID) != resp.Timing.TraceID {
				continue
			}
			for _, sp := range ex.Spans {
				if sp.Cat == "forward" {
					forwards = append(forwards, fmt.Sprintf("%s failed=%v", sp.Name, sp.Err != ""))
				}
			}
		}
		if got, want := fmt.Sprint(forwards), fmt.Sprintf("[%s/primary failed=true %s/degraded failed=false]", name, name); got != want {
			t.Errorf("%s: forward spans %s, want %s", name, got, want)
		}
	}
}

// TestConcurrentOverlappingRequests drives both models from many goroutines
// at once with vertex sets that overlap, stored and caller-supplied features
// mixed, so the queues fill and drain while handlers read their rows: every
// response holds its own rows' reference logits, whatever rows the run before
// it left in the arena. Under -race at GOMAXPROCS=4 (CI's
// race-e2e job) this is the ownership proof for the row path.
func TestConcurrentOverlappingRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Models: []string{"GCN", "GAT"}, QueueDepth: 256})
	g := s.g
	custom := tensor.NewDense(g.NumVertices(), 16)
	custom.FillRandom(rand.New(rand.NewSource(5)), 1)
	feats := make([][]float32, custom.Rows)
	for i := range feats {
		feats[i] = custom.Row(i)
	}
	want := map[string][2]*tensor.Dense{}
	for _, name := range []string{"GCN", "GAT"} {
		m, _ := models.ByName(name)
		onCustom, err := models.ForwardCtx(context.Background(), m, g, custom, 8, models.NewHostEngine(core.ReferenceBackend()))
		if err != nil {
			t.Fatal(err)
		}
		want[name] = [2]*tensor.Dense{referenceLogits(t, name, "CO", 16, 8), onCustom}
	}

	var before [2][3]int64
	for i, name := range []string{"gcn", "gat"} {
		before[i][0], before[i][1], before[i][2] = forwardModes(s.hosts[name])
	}
	clients, perClient := 2*runtime.GOMAXPROCS(0), 24
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				name := []string{"GCN", "GAT"}[rng.Intn(2)]
				// A narrow id range makes consecutive requests' closures overlap.
				vertices := make([]int, 1+rng.Intn(4))
				for j := range vertices {
					vertices[j] = 1000 + rng.Intn(40)
				}
				req, which := wireRequest{Model: name, Vertices: vertices, TimeoutMS: 20000}, 0
				if rng.Intn(6) == 0 {
					req.Features, which = feats, 1
				}
				code, resp, e := postInfer(t, ts.URL, req)
				if code != http.StatusOK {
					t.Errorf("client %d request %d: status %d (%s)", c, i, code, e.Error)
					return
				}
				for j, v := range vertices {
					if d := maxAbsDiff(resp.Logits[j], want[name][which].Row(v)); d > 1e-4 {
						t.Errorf("client %d request %d (%s, custom=%v): vertex %d maxdiff %g", c, i, name, which == 1, v, d)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for i, name := range []string{"gcn", "gat"} {
		rows, full, passes := forwardModes(s.hosts[name])
		rows, full, passes = rows-before[i][0], full-before[i][1], passes-before[i][2]
		if rows == 0 || full != 0 || rows != passes {
			t.Errorf("%s: forward modes rows=%d full=%d over %d passes, want every pass a row run", name, rows, full, passes)
		}
	}
}

// TestNoTraceFileNoEventRetention is the daemon without -trace: with the
// global event buffer off, fifty thousand requests leave the heap where five
// thousand did and drop nothing — while each request still gets its trace id,
// its timing breakdown and its place among the exemplars.
func TestNoTraceFileNoEventRetention(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	telemetry.SetEnabled(true)
	telemetry.Default().SetEventRetention(false)
	s, _ := newTestServer(t, Config{Models: []string{"GCN"}})

	total, sample := 50000, 5000
	if testing.Short() {
		total, sample = 10000, 1000
	}
	body := []byte(`{"model":"GCN","vertices":[3,1500,42,7]}`)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var early uint64
	var last *httptest.ResponseRecorder
	for i := 1; i <= total; i++ {
		last = httptest.NewRecorder()
		s.Handler().ServeHTTP(last, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
		if last.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, last.Code, last.Body)
		}
		if i == sample {
			early = heap()
		}
	}
	late := heap()
	// Retained, the 45 000 requests in between would have added ~10 events of
	// ~112 bytes plus an args map each: some 50 MB. Allow 4 MB of drift.
	if grew := int64(late) - int64(early); grew > 4<<20 {
		t.Errorf("heap grew %d KiB between request %d and request %d with event retention off", grew>>10, sample, total)
	}
	if n := len(telemetry.Default().Events()); n != 0 {
		t.Errorf("%d global trace events retained with retention off", n)
	}
	if d := telemetry.Default().Counter(telemetry.MetricDroppedEvents).Value(); d != 0 {
		t.Errorf("%s = %d: events nobody wanted were counted as dropped", telemetry.MetricDroppedEvents, d)
	}

	// What a request itself carries is unchanged.
	if last.Header().Get("X-Trace-Id") == "" {
		t.Error("no X-Trace-Id on the response")
	}
	var resp inferResponse
	if err := json.Unmarshal(last.Body.Bytes(), &resp); err != nil || resp.Timing == nil || resp.Timing.TraceID == "" {
		t.Errorf("response lost its timing breakdown: %v, %s", err, last.Body)
	}
	h := s.hosts["gcn"]
	if n := h.m.stageKernel.Count(); n != int64(total) {
		t.Errorf("kernel stage histogram holds %d observations, want %d", n, total)
	}
	slow, _ := s.exemplars.Snapshot()
	if len(slow) == 0 || len(slow[0].Spans) == 0 {
		t.Error("the exemplar store holds no request span tree")
	}
}
