package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/vec"
	"repro/internal/workpool"
)

// The exporter contracts the ISSUE pins: Chrome traces are valid JSON with
// monotonically non-decreasing timestamps per track, and the Prometheus
// snapshot round-trips counter values exactly (integers, no float loss).

func TestChromeTraceValidJSONMonotonicPerTrack(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	r := Default()
	// Interleave spans across tracks, deliberately out of per-track order in
	// the event buffer (track B's early event arrives after track A's late
	// one), so the exporter's sort is what establishes monotonicity.
	r.addEvent(TraceEvent{Name: "a1", Cat: "k", Track: r.Track("A"), Start: 100, Dur: 50})
	r.addEvent(TraceEvent{Name: "a2", Cat: "k", Track: r.Track("A"), Start: 400, Dur: 20})
	r.addEvent(TraceEvent{Name: "b1", Cat: "k", Track: r.Track("B"), Start: 50, Dur: 10})
	r.addEvent(TraceEvent{Name: "a0", Cat: "k", Track: r.Track("A"), Start: 10, Dur: 5})
	r.Instant("B", "k", "i1", map[string]string{"k": "v"})

	var sb strings.Builder
	if err := r.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}

	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Tid  int               `json:"tid"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	lastTs := map[int]float64{}
	var spans, instants, meta int
	for _, ev := range trace.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			continue
		case "X":
			spans++
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if last, ok := lastTs[ev.Tid]; ok && ev.Ts < last {
			t.Errorf("track %d: ts %v < previous %v — not monotonically non-decreasing", ev.Tid, ev.Ts, last)
		}
		lastTs[ev.Tid] = ev.Ts
	}
	if spans != 4 || instants != 1 {
		t.Errorf("got %d spans and %d instants, want 4 and 1", spans, instants)
	}
	if meta < 3 { // process_name + 2 thread_names
		t.Errorf("got %d metadata events, want >= 3", meta)
	}
	// Ts must be microseconds: the 400ns span lands at 0.4µs.
	found := false
	for _, ev := range trace.TraceEvents {
		if ev.Name == "a2" && ev.Ts == 0.4 {
			found = true
		}
	}
	if !found {
		t.Error("span timestamps are not in microseconds")
	}
}

// parsePromCounters reads counter series (exact int64) back out of the text
// format.
func parsePromCounters(t *testing.T, text string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable line %q", line)
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			continue // gauges/histogram sums are floats; skip
		}
		out[line[:sp]] = v
	}
	return out
}

func TestPrometheusCounterRoundTripExact(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	r := Default()
	// Values chosen to break float64 round-tripping if the exporter ever
	// formats counters as floats: 2^53+1 is not representable as float64.
	want := map[string]int64{
		"big_total": (1 << 53) + 1,
		Series2("ugrapher_kernel_runs_total", "backend", "parallel", "strategy", "WE"): 12345,
		MetricFallbacks: 7,
	}
	for name, v := range want {
		r.Counter(name).Add(v)
	}
	r.Gauge("some_gauge").Set(0.5)
	step := Series2(MetricStepWall, "model", "GCN", "step", "gemm")
	r.Histogram(step, DefaultLatencyBuckets).Observe(250_000)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	got := parsePromCounters(t, text)
	for name, v := range want {
		if got[name] != v {
			t.Errorf("counter %s round-tripped to %d, want %d", name, got[name], v)
		}
	}
	for _, frag := range []string{
		"# TYPE ugrapher_fallbacks_total counter",
		"# TYPE some_gauge gauge",
		"# TYPE ugrapher_step_wall_seconds histogram",
		`ugrapher_step_wall_seconds_bucket{model="GCN",step="gemm",le="+Inf"} 1`,
		`ugrapher_step_wall_seconds_count{model="GCN",step="gemm"} 1`,
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("snapshot missing %q:\n%s", frag, text)
		}
	}
	// The cumulative bucket for le=0.001 must include the 250µs observation.
	if !strings.Contains(text, `ugrapher_step_wall_seconds_bucket{model="GCN",step="gemm",le="0.001"} 1`) {
		t.Errorf("histogram buckets not cumulative:\n%s", text)
	}
}

// TestPrometheusAlwaysCarriesWellKnownSeries: even a fresh registry exports
// the fallback and dropped-event counters at zero, so dashboards never see
// gaps.
func TestPrometheusAlwaysCarriesWellKnownSeries(t *testing.T) {
	r := NewRegistry()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{MetricFallbacks, MetricDroppedEvents} {
		if !strings.Contains(sb.String(), name+" 0") {
			t.Errorf("fresh snapshot missing %s:\n%s", name, sb.String())
		}
	}
}

// TestSnapshotsNameTheKernelSet: every gauge snapshot and every Prometheus
// rendering carries exactly one ugrapher_kernel_isa series, value 1, labelled
// with the kernels the process dispatches to, and follows the dispatch
// decision.
func TestSnapshotsNameTheKernelSet(t *testing.T) {
	check := func(t *testing.T) {
		r := NewRegistry()
		series := Series1(MetricKernelISA, "isa", vec.ISA())
		if v := r.GaugeValues()[series]; v != 1 {
			t.Errorf("gauge snapshot has %s = %v, want 1", series, v)
		}
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "# TYPE ugrapher_kernel_isa gauge\n"+series+" 1\n") {
			t.Errorf("rendering lacks %s 1:\n%s", series, sb.String())
		}
		if n := strings.Count(sb.String(), MetricKernelISA+"{"); n != 1 {
			t.Errorf("%d %s series, want exactly one", n, MetricKernelISA)
		}
	}
	check(t)
	t.Run("forced generic", func(t *testing.T) {
		vec.ForceGeneric(t)
		if vec.ISA() != "generic" {
			t.Fatal("ForceGeneric left the vector kernels on")
		}
		check(t)
	})
}

// TestPrometheusCarriesPoolSeries: the worker pool's helper count, job count
// and caller/helper chunk split are in every snapshot, and move when a job
// is dispatched — "did parallelism engage" is answerable from /metrics.
func TestPrometheusCarriesPoolSeries(t *testing.T) {
	r := NewRegistry()
	before := r.CounterValues()
	j := workpool.NewJob(func(lo, hi int) { time.Sleep(100 * time.Microsecond) })
	if err := workpool.Run(context.Background(), j, 32, 1, 3); err != nil {
		t.Fatal(err)
	}
	after := r.CounterValues()
	caller, helper := Series1(MetricPoolChunks, "by", "caller"), Series1(MetricPoolChunks, "by", "helper")
	if after[MetricPoolJobs] != before[MetricPoolJobs]+1 {
		t.Errorf("%s went %d -> %d over one job", MetricPoolJobs, before[MetricPoolJobs], after[MetricPoolJobs])
	}
	if d := after[caller] - before[caller] + after[helper] - before[helper]; d != 32 {
		t.Errorf("chunk counters moved by %d over a 32-chunk job", d)
	}
	if w := r.GaugeValues()[MetricPoolWorkers]; w < 2 {
		t.Errorf("%s = %v after a 3-worker job, want >= 2", MetricPoolWorkers, w)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"# TYPE ugrapher_pool_workers gauge",
		"# TYPE ugrapher_pool_jobs_total counter",
		"# TYPE ugrapher_pool_chunks_total counter",
		`ugrapher_pool_chunks_total{by="caller"} `,
		`ugrapher_pool_chunks_total{by="helper"} `,
	} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("snapshot missing %q:\n%s", frag, sb.String())
		}
	}
}
