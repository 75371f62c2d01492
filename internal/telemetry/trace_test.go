package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// Causal-trace contracts (DESIGN.md §8): span ids are unique and parent links
// form one connected tree per trace; MakeCurrent/RestoreCurrent swap the
// causal parent correctly; flow links come in bound pairs; the exemplar store
// retains exactly the slowest and most recent errored requests; and the
// Chrome exporter stays valid JSON with the three new phases present.

func TestTraceSpanTreeParentLinks(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	ts := NewTraceState(0, 0, 16)
	if ts.TraceID() == 0 {
		t.Fatal("minted trace id is zero")
	}

	root := StartTraceSpan(ts, "serve", "request", "infer")
	if root.SpanID() == 0 || root.TraceID() != ts.TraceID() {
		t.Fatalf("root span identity wrong: span=%d trace=%d", root.SpanID(), root.TraceID())
	}
	if root.parentID != 0 {
		t.Fatalf("locally minted root has parent %d, want 0", root.parentID)
	}
	prevRoot := root.MakeCurrent()
	if prevRoot != 0 || ts.Current() != root.SpanID() {
		t.Fatalf("MakeCurrent: prev=%d cur=%d, want 0 and %d", prevRoot, ts.Current(), root.SpanID())
	}

	// Two sequential children under the root, each briefly current — the
	// shape a program run with two steps produces.
	var stepIDs []uint64
	for _, name := range []string{"step-a", "step-b"} {
		sp := StartTraceSpan(ts, "program", "step", name)
		if sp.parentID != root.SpanID() {
			t.Errorf("%s parents onto %d, want root %d", name, sp.parentID, root.SpanID())
		}
		prev := sp.MakeCurrent()
		grand := StartTraceSpan(ts, "parallel", "kernel", name+"-kernel")
		if grand.parentID != sp.SpanID() {
			t.Errorf("%s kernel parents onto %d, want step %d", name, grand.parentID, sp.SpanID())
		}
		grand.End()
		sp.RestoreCurrent(prev)
		sp.End()
		stepIDs = append(stepIDs, sp.SpanID())
	}
	if ts.Current() != root.SpanID() {
		t.Fatalf("RestoreCurrent left cur=%d, want root %d", ts.Current(), root.SpanID())
	}
	root.RestoreCurrent(prevRoot)
	root.End()

	spans, truncated := ts.Snapshot()
	if truncated != 0 {
		t.Fatalf("unexpected truncation: %d", truncated)
	}
	if len(spans) != 5 { // 2 kernels + 2 steps + root
		t.Fatalf("got %d span records, want 5", len(spans))
	}
	// Every non-root span's parent must resolve inside the snapshot, and ids
	// must be unique: the connected-tree invariant.
	ids := map[uint64]bool{}
	for _, sp := range spans {
		if ids[sp.SpanID] {
			t.Errorf("duplicate span id %d", sp.SpanID)
		}
		ids[sp.SpanID] = true
	}
	for _, sp := range spans {
		if sp.ParentID != 0 && !ids[sp.ParentID] {
			t.Errorf("span %q parent %d not in snapshot", sp.Name, sp.ParentID)
		}
	}
	if stepIDs[0] == stepIDs[1] {
		t.Error("sequential steps share a span id")
	}
}

func TestTraceStateAdoptedParentAndTruncation(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	// Adopted remote parent (traceparent): the root span parents onto it.
	ts := NewTraceState(0xabc, 0x99, 2)
	if ts.TraceID() != 0xabc {
		t.Fatalf("adopted trace id %x, want abc", ts.TraceID())
	}
	root := StartTraceSpan(ts, "serve", "request", "infer")
	if root.parentID != 0x99 {
		t.Fatalf("root parent %x, want adopted 99", root.parentID)
	}
	root.End()

	// The pre-sized buffer truncates past cap rather than growing.
	for i := 0; i < 4; i++ {
		StartTraceSpan(ts, "serve", "stage", fmt.Sprintf("s%d", i)).End()
	}
	spans, truncated := ts.Snapshot()
	if len(spans) != 2 || truncated != 3 {
		t.Fatalf("got %d spans, %d truncated; want 2 and 3", len(spans), truncated)
	}
}

func TestRecordSpanAndFlowLink(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	ts := NewTraceState(0, 0, 8)
	root := StartTraceSpan(ts, "serve", "request", "infer")
	root.MakeCurrent()

	// Explicit parent, and end < start clamps to a zero-length span.
	id := RecordSpan(ts, "serve", "stage", "queue_wait", 100, 50, root.SpanID())
	if id == 0 {
		t.Fatal("RecordSpan returned 0 while enabled")
	}
	// Parent 0 adopts the current causal parent.
	RecordSpan(ts, "serve", "stage", "respond", 200, 300, 0)
	root.End()

	spans, _ := ts.Snapshot()
	byName := map[string]SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if got := byName["queue_wait"]; got.Dur != 0 || got.ParentID != root.SpanID() {
		t.Errorf("queue_wait dur=%d parent=%d, want 0 and %d", got.Dur, got.ParentID, root.SpanID())
	}
	if got := byName["respond"]; got.Dur != 100 || got.ParentID != root.SpanID() {
		t.Errorf("respond dur=%d parent=%d, want 100 and %d", got.Dur, got.ParentID, root.SpanID())
	}

	FlowLink("batch", "coalesced",
		FlowPoint{Track: "serve", Ts: 10, Trace: ts.TraceID(), Span: root.SpanID()},
		FlowPoint{Track: "serve", Ts: 20, Trace: 0xbeef, Span: 7})

	var starts, finishes []TraceEvent
	for _, ev := range Default().Events() {
		if ev.FlowID == 0 {
			continue
		}
		if ev.FlowEnd {
			finishes = append(finishes, ev)
		} else {
			starts = append(starts, ev)
		}
	}
	if len(starts) != 1 || len(finishes) != 1 {
		t.Fatalf("got %d flow starts, %d finishes; want 1 and 1", len(starts), len(finishes))
	}
	if starts[0].FlowID != finishes[0].FlowID {
		t.Error("flow pair ids differ — viewers cannot bind the arrow")
	}
	if starts[0].TraceID != ts.TraceID() || finishes[0].TraceID != 0xbeef {
		t.Error("flow endpoints lost their trace identity")
	}
}

func TestTraceDisabledPathsAreInert(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	// Telemetry stays disabled: every constructor returns inert values and
	// records nothing.
	ts := NewTraceState(0, 0, 4)
	sp := StartTraceSpan(ts, "serve", "request", "infer")
	if sp.SpanID() != 0 {
		t.Error("disabled StartTraceSpan returned a live span")
	}
	sp.MakeCurrent()
	sp.End()
	if RecordSpan(ts, "serve", "stage", "x", 0, 1, 0) != 0 {
		t.Error("disabled RecordSpan recorded")
	}
	FlowLink("batch", "x", FlowPoint{}, FlowPoint{})
	ctx := ContextWithTrace(context.Background(), ts)
	StartSpanCtx(ctx, "serve", "request", "x").End()
	if n := len(Default().Events()); n != 0 {
		t.Fatalf("disabled paths emitted %d events", n)
	}
	if spans, _ := ts.Snapshot(); len(spans) != 0 {
		t.Fatalf("disabled paths recorded %d spans", len(spans))
	}
}

func TestExemplarStoreRetention(t *testing.T) {
	s := NewExemplarStore(3, 2)

	// Offer ok requests with distinct wall times; only the 3 slowest survive.
	for _, ns := range []int64{50, 10, 90, 30, 70} {
		s.Offer(RequestExemplar{TraceID: uint64(ns), Model: "GCN", Status: "ok", WallNs: ns})
	}
	slow, errs := s.Snapshot()
	if len(errs) != 0 {
		t.Fatalf("ok-only offers landed %d errors", len(errs))
	}
	var got []int64
	for _, ex := range slow {
		got = append(got, ex.WallNs)
	}
	if len(got) != 3 || got[0] != 90 || got[1] != 70 || got[2] != 50 {
		t.Fatalf("slow set %v, want [90 70 50]", got)
	}
	// The floor gate rejects sub-floor offers without changing the set.
	s.Offer(RequestExemplar{Status: "ok", WallNs: 20})
	if slow, _ = s.Snapshot(); len(slow) != 3 || slow[2].WallNs != 50 {
		t.Fatalf("sub-floor offer mutated the slow set: %+v", slow)
	}

	// Errors go to the ring, most recent first, capped at maxErr.
	for i, status := range []string{"error", "timeout", "rejected"} {
		s.Offer(RequestExemplar{TraceID: uint64(1000 + i), Status: status, WallNs: 1})
	}
	_, errs = s.Snapshot()
	if len(errs) != 2 || errs[0].Status != "rejected" || errs[1].Status != "timeout" {
		t.Fatalf("error ring %+v, want [rejected timeout]", errs)
	}
	if s.Seen() != 9 {
		t.Fatalf("seen %d, want 9", s.Seen())
	}

	// A nil store absorbs everything quietly (serving layer passes one
	// through unconditionally).
	var nilStore *ExemplarStore
	nilStore.Offer(RequestExemplar{})
	if nilStore.Seen() != 0 {
		t.Fatal("nil store counted")
	}
}

func TestPrometheusLabelEscapingRoundTrip(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	// Label values containing every character the text format escapes: the
	// exporter must emit \" \\ \n so a spec-conforming parser recovers the
	// original value.
	hostile := `quote " back \ slash` + "\nnewline"
	r := Default()
	r.Counter(Series1("escape_total", "model", hostile)).Add(5)
	r.Counter(Series2("escape2_total", "a", `x\`, "b", `y"`)).Add(7)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if strings.Count(text, "\x00") != 0 {
		t.Fatal("control bytes in exposition")
	}

	unescape := func(v string) string {
		var out strings.Builder
		for i := 0; i < len(v); i++ {
			if v[i] == '\\' && i+1 < len(v) {
				i++
				switch v[i] {
				case 'n':
					out.WriteByte('\n')
				default:
					out.WriteByte(v[i])
				}
				continue
			}
			out.WriteByte(v[i])
		}
		return out.String()
	}

	// Each physical exposition line is one sample; the hostile newline must
	// be escaped into the label value, never breaking the line apart.
	found := false
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `escape_total{model="`) {
			continue
		}
		found = true
		start := strings.Index(line, `"`) + 1
		end := strings.LastIndex(line, `"`)
		if got := unescape(line[start:end]); got != hostile {
			t.Errorf("label round-tripped to %q, want %q", got, hostile)
		}
		if !strings.HasSuffix(line, "} 5") {
			t.Errorf("sample value lost: %q", line)
		}
	}
	if !found {
		t.Fatalf("escaped series missing from exposition:\n%s", text)
	}
	if !strings.Contains(text, `escape2_total{a="x\\",b="y\""} 7`) {
		t.Errorf("two-label escaping wrong:\n%s", text)
	}
}

func TestPrometheusLabeledHistogramRendering(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	r := Default()
	h := r.Histogram(Series1("stage_seconds", "model", "GCN"), []float64{0.001, 0.01})
	h.Observe(500_000) // 0.5ms → first bucket
	h.Observe(5_000_000)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	// The le label merges into the existing label set on the family name —
	// never name{model=...}_bucket.
	for _, frag := range []string{
		"# TYPE stage_seconds histogram",
		`stage_seconds_bucket{model="GCN",le="0.001"} 1`,
		`stage_seconds_bucket{model="GCN",le="0.01"} 2`,
		`stage_seconds_bucket{model="GCN",le="+Inf"} 2`,
		`stage_seconds_count{model="GCN"} 2`,
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("exposition missing %q:\n%s", frag, text)
		}
	}
	if strings.Contains(text, `"}_bucket`) || strings.Contains(text, `"}_sum`) || strings.Contains(text, `"}_count`) {
		t.Fatalf("suffix appended after label braces:\n%s", text)
	}
}

func TestPrometheusBuildInfoAndDroppedCounter(t *testing.T) {
	r := NewRegistry()
	r.SetBuildInfo("1.2.3", "parallel")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `ugrapher_build_info{version="1.2.3",go_version="go`) ||
		!strings.Contains(text, `backend="parallel"} 1`) {
		t.Errorf("build_info missing or malformed:\n%s", text)
	}
	// The drop counter exports at zero from a fresh registry: dashboards can
	// alert on it without waiting for the first drop.
	if !strings.Contains(text, MetricDroppedEvents+" 0") {
		t.Errorf("exposition missing %s at zero:\n%s", MetricDroppedEvents, text)
	}
}

func TestChromeTraceWithFlowAndAsyncEventsIsValidJSON(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	ts := NewTraceState(0, 0, 8)
	root := StartTraceSpan(ts, "serve", "request", "infer")
	prev := root.MakeCurrent()
	StartTraceSpan(ts, "program", "run", "forward").End()
	root.RestoreCurrent(prev)
	root.End()
	other := NewTraceState(0, 0, 4)
	FlowLink("batch", "coalesced",
		FlowPoint{Track: "serve", Ts: root.Start(), Trace: other.TraceID(), Span: 1},
		FlowPoint{Track: "serve", Ts: root.Start() + 1, Trace: ts.TraceID(), Span: root.SpanID()})

	var sb strings.Builder
	if err := Default().WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			ID   string            `json:"id"`
			Bp   string            `json:"bp"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	phases := map[string]int{}
	var flowStartID, flowFinishID, asyncBegin, asyncEnd string
	for _, ev := range trace.TraceEvents {
		phases[ev.Ph]++
		switch ev.Ph {
		case "s":
			flowStartID = ev.ID
		case "f":
			flowFinishID = ev.ID
			if ev.Bp != "e" {
				t.Errorf("flow finish bp=%q, want e (bind to enclosing slice)", ev.Bp)
			}
		case "b":
			if ev.Cat == "request" {
				asyncBegin = ev.ID
			}
		case "e":
			if ev.Cat == "request" {
				asyncEnd = ev.ID
			}
		}
		if ev.Ph == "X" && ev.Args["trace_id"] == "" {
			t.Errorf("traced span %q exported without trace_id arg", ev.Name)
		}
	}
	if phases["X"] != 2 || phases["s"] != 1 || phases["f"] != 1 {
		t.Fatalf("phase counts %v, want 2 X, 1 s, 1 f", phases)
	}
	if phases["b"] != 2 || phases["e"] != 2 {
		t.Fatalf("async shadow pairs %v, want 2 b and 2 e", phases)
	}
	if flowStartID == "" || flowStartID != flowFinishID {
		t.Errorf("flow pair ids %q vs %q — must match", flowStartID, flowFinishID)
	}
	if asyncBegin == "" || asyncBegin != asyncEnd {
		t.Errorf("async pair ids %q vs %q — must match", asyncBegin, asyncEnd)
	}
	if asyncBegin != hexID(ts.TraceID()) {
		t.Errorf("async id %q, want trace id %q", asyncBegin, hexID(ts.TraceID()))
	}
}

func TestEventBufferDropCounting(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	r := Default()
	r.SetMaxEvents(2)
	for i := 0; i < 5; i++ {
		r.Instant("serve", "x", "e", nil)
	}
	if n := len(r.Events()); n != 2 {
		t.Fatalf("buffer holds %d events, want 2", n)
	}
	if got := r.Counter(MetricDroppedEvents).Value(); got != 3 {
		t.Fatalf("dropped counter %d, want 3", got)
	}
}

// TestEventRetentionOff: with the global buffer off, spans and instants leave
// nothing in it and count nothing as dropped, while a request's own tree still
// receives its spans; turning retention back on (and Reset) restores the
// buffer.
func TestEventRetentionOff(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	r := Default()
	r.SetEventRetention(false)
	ts := NewTraceState(0, 0, 8)
	sp := StartTraceSpan(ts, "serve", "request", "infer")
	RecordSpan(ts, "serve", "stage", "admission", sp.Start(), sp.Start()+10, sp.SpanID())
	sp.End()
	r.Instant("serve", "x", "e", nil)
	if n := len(r.Events()); n != 0 {
		t.Errorf("buffer holds %d events with retention off", n)
	}
	if got := r.Counter(MetricDroppedEvents).Value(); got != 0 {
		t.Errorf("dropped counter %d with retention off, want 0", got)
	}
	if spans, _ := ts.Snapshot(); len(spans) != 2 {
		t.Errorf("the request's own tree holds %d spans, want 2", len(spans))
	}

	r.SetEventRetention(true)
	r.Instant("serve", "x", "e", nil)
	if n := len(r.Events()); n != 1 {
		t.Errorf("buffer holds %d events after retention came back, want 1", n)
	}
	r.SetEventRetention(false)
	Reset()
	SetEnabled(true)
	r.Instant("serve", "x", "e", nil)
	if n := len(r.Events()); n != 1 {
		t.Errorf("buffer holds %d events after Reset, want retention back on", n)
	}
}
