package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("test_total") != c {
		t.Error("Counter is not idempotent per name")
	}

	g := r.Gauge("test_gauge")
	g.Set(0.25)
	if got := g.Value(); got != 0.25 {
		t.Errorf("gauge = %v, want 0.25", got)
	}

	h := r.Histogram("test_seconds", DefaultLatencyBuckets)
	h.Observe(5_000)          // 5µs -> first bucket (le 1e-5)
	h.Observe(500_000)        // 500µs -> le 1e-3
	h.Observe(20_000_000_000) // 20s -> +Inf bucket
	if got := h.Count(); got != 3 {
		t.Errorf("histogram count = %d, want 3", got)
	}
	wantSum := (5_000 + 500_000 + 20_000_000_000) / 1e9
	if got := h.SumSeconds(); got != wantSum {
		t.Errorf("histogram sum = %v, want %v", got, wantSum)
	}
	if got := h.counts[0].Load(); got != 1 {
		t.Errorf("first bucket = %d, want 1", got)
	}
	if got := h.counts[len(h.bounds)].Load(); got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
}

func TestSeriesLabelEscaping(t *testing.T) {
	got := Series1("m_total", "op", `a"b\c`+"\n")
	want := `m_total{op="a\"b\\c\n"}`
	if got != want {
		t.Errorf("Series1 = %q, want %q", got, want)
	}
	if got := Series2("m_total", "a", "x", "b", "y"); got != `m_total{a="x",b="y"}` {
		t.Errorf("Series2 = %q", got)
	}
	if f := family(`m_total{a="x"}`); f != "m_total" {
		t.Errorf("family = %q", f)
	}
}

func TestSpansRequireEnabled(t *testing.T) {
	Reset()
	t.Cleanup(Reset)

	sp := StartSpan("track", "cat", "off")
	sp.End() // must be inert, not panic
	if evs := Default().Events(); len(evs) != 0 {
		t.Fatalf("disabled StartSpan recorded %d events", len(evs))
	}

	SetEnabled(true)
	sp = StartSpan("track", "cat", "on")
	sp.End()
	Default().Instant("track", "cat", "instant", nil)
	evs := Default().Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Name != "on" || evs[0].Instant {
		t.Errorf("span event wrong: %+v", evs[0])
	}
	if !evs[1].Instant {
		t.Errorf("instant event wrong: %+v", evs[1])
	}
}

func TestKernelSiteRecordsRunsAndFailures(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	s := NewKernelSite("op.sum", "WE", "WE_G8_T4", "parallel", 100, 400)
	start := s.Begin()
	s.EndCtx(context.Background(), start, OutcomeOK, "", nil)
	start = s.Begin()
	s.EndCtx(context.Background(), start, OutcomeKernelError, "boom", nil)

	vals := Default().CounterValues()
	if got := vals[`ugrapher_kernel_runs_total{backend="parallel",strategy="WE"}`]; got != 2 {
		t.Errorf("runs counter = %d, want 2", got)
	}
	if got := vals[`ugrapher_kernel_edges_processed_total{backend="parallel"}`]; got != 800 {
		t.Errorf("edges counter = %d, want 800", got)
	}
	if got := vals[`ugrapher_kernel_failures_total{backend="parallel",outcome="kernel_error"}`]; got != 1 {
		t.Errorf("failures counter = %d, want 1", got)
	}

	evs := Default().Events()
	if len(evs) != 2 {
		t.Fatalf("got %d kernel spans, want 2", len(evs))
	}
	if evs[1].Args["outcome"] != string(OutcomeKernelError) || evs[1].Args["error"] != "boom" {
		t.Errorf("failure span wrong: %+v", evs[1])
	}
	if a := evs[0].Args; evs[0].Name != "op.sum" || a["outcome"] != string(OutcomeOK) || a["strategy"] != "WE" || a["schedule"] != "WE_G8_T4" {
		t.Errorf("span identity wrong: %+v", evs[0])
	}

	stats := Default().SiteStats()
	if len(stats) != 1 || stats[0].Runs != 2 || stats[0].Failures != 1 {
		t.Errorf("site stats wrong: %+v", stats)
	}
	if st := stats[0]; st.Op != "op.sum" || st.Strategy != "WE" || st.Schedule != "WE_G8_T4" || st.Backend != "parallel" {
		t.Errorf("site identity wrong: %+v", st)
	}
}

func TestKernelSiteDisabledIsInert(t *testing.T) {
	Reset()
	t.Cleanup(Reset)

	s := NewKernelSite("op", "TV", "TV_G1_T1", "reference", 10, 20)
	if start := s.Begin(); start != 0 {
		t.Errorf("disabled Begin = %d, want 0", start)
	}
	s.EndCtx(context.Background(), 0, OutcomeOK, "", nil)
	var nilSite *KernelSite
	if nilSite.Begin() != 0 {
		t.Error("nil site Begin != 0")
	}
	nilSite.EndCtx(context.Background(), 0, OutcomeOK, "", nil) // must not panic
	if evs := Default().Events(); len(evs) != 0 {
		t.Errorf("disabled site emitted %d spans", len(evs))
	}
	if stats := Default().SiteStats(); len(stats) != 1 || stats[0].Runs != 0 {
		t.Errorf("disabled site counted runs: %+v", stats)
	}
}

func TestSimSamplePublishesGauges(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	s := NewKernelSite("op", "WV", "WV_G2_T1", "sim", 10, 20)
	s.EndCtx(context.Background(), s.Begin(), OutcomeOK, "", &SimSample{Cycles: 123, L1HitRate: 0.5, L2HitRate: 0.75})

	gs := Default().GaugeValues()
	if gs["ugrapher_sim_l1_hit_rate"] != 0.5 || gs["ugrapher_sim_l2_hit_rate"] != 0.75 {
		t.Errorf("sim gauges wrong: %+v", gs)
	}
	if evs := Default().Events(); len(evs) != 1 || evs[0].Args["sim_cycles"] != "123" {
		t.Errorf("sim span wrong: %+v", evs)
	}
}

func TestRecordFallbackCountsEvenWhenDisabled(t *testing.T) {
	Reset()
	t.Cleanup(Reset)

	RecordFallback("op", "parallel", "reference")
	if got := defaultReg.fallbacks.Value(); got != 1 {
		t.Errorf("Fallbacks = %d, want 1 (the counter must survive a disabled phase)", got)
	}
	if evs := Default().Events(); len(evs) != 0 {
		t.Errorf("disabled fallback emitted %d events", len(evs))
	}
	SetEnabled(true)
	RecordFallback("op", "parallel", "reference")
	if got := defaultReg.fallbacks.Value(); got != 2 {
		t.Errorf("Fallbacks = %d, want 2", got)
	}
	if evs := Default().Events(); len(evs) != 1 {
		t.Errorf("enabled fallback emitted %d events, want 1", len(evs))
	}
}

func TestEventBufferDropsAndCounts(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	r := Default()
	r.mu.Lock()
	r.maxEvents = 4
	r.mu.Unlock()
	for i := 0; i < 10; i++ {
		r.Instant("t", "c", "e", nil)
	}
	if evs := r.Events(); len(evs) != 4 {
		t.Errorf("kept %d events, want 4", len(evs))
	}
	if got := r.CounterValues()[MetricDroppedEvents]; got != 6 {
		t.Errorf("dropped counter = %d, want 6", got)
	}
}

// TestConcurrentRecording drives counters, spans and a kernel site from many
// goroutines; run under -race this pins the lock discipline.
func TestConcurrentRecording(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	const workers, iters = 8, 200
	site := NewKernelSite("op", "WE", "WE_G4_T2", "parallel", 50, 100)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				Default().Counter("concurrent_total").Inc()
				sp := StartSpan("worker", "test", "span")
				site.EndCtx(context.Background(), site.Begin(), OutcomeOK, "", nil)
				sp.End()
				if w == 0 && i%50 == 0 {
					Default().Gauge("concurrent_gauge").Set(float64(i))
				}
			}
		}()
	}
	wg.Wait()
	if got := Default().CounterValues()["concurrent_total"]; got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := Default().SiteStats()[0].Runs; got != workers*iters {
		t.Errorf("site runs = %d, want %d", got, workers*iters)
	}
}

func TestResetClearsState(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)
	Default().Counter("x_total").Inc()
	Default().Instant("t", "c", "e", nil)
	Reset()
	if Enabled() {
		t.Error("Reset left telemetry enabled")
	}
	vals := Default().CounterValues()
	if vals["x_total"] != 0 {
		t.Error("Reset kept counter value")
	}
	// Well-known series must be re-registered so snapshots always carry them.
	if _, ok := vals[MetricFallbacks]; !ok {
		t.Errorf("Reset dropped %s from the registry", MetricFallbacks)
	}
	if evs := Default().Events(); len(evs) != 0 {
		t.Error("Reset kept events")
	}
}

func TestWriteProfileMergesSites(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	SetEnabled(true)

	a := NewKernelSite("aggr", "WV", "WV_G2_T1", "parallel", 10, 40)
	b := NewKernelSite("aggr", "WV", "WV_G2_T1", "parallel", 10, 40) // same identity, second lowering
	a.EndCtx(context.Background(), a.Begin(), OutcomeOK, "", nil)
	b.EndCtx(context.Background(), b.Begin(), OutcomeKernelError, "x", nil)

	var sb strings.Builder
	if err := Default().WriteProfile(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "1 kernel sites, 2 runs, 1 failures") {
		t.Errorf("profile header did not merge identical sites:\n%s", out)
	}
	if strings.Count(out, "aggr") != 1 {
		t.Errorf("profile shows duplicate rows for one identity:\n%s", out)
	}
}
