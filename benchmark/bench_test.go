package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
)

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(ten, 50); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := percentile(ten, 90); got < 9.09 || got > 9.11 {
		t.Errorf("p90 = %g, want 9.1", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5].
	if q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %g %g %g, want 1.5 3 4.5", q1, q2, q3)
	}
	if got := spread(ten); got != 1 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}

func TestOpenScheduleIsSeeded(t *testing.T) {
	w, _ := workloadByName("serve-mixed")
	a := openSchedule(w, 7, 5*time.Second, 2708)
	b := openSchedule(w, 7, 5*time.Second, 2708)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, openSchedule(w, 8, 5*time.Second, 2708)) {
		t.Fatal("two seeds gave the same schedule")
	}
	custom, second := 0, 0
	for i, r := range a {
		if i > 0 && r.Due < a[i-1].Due || r.Due >= 5*time.Second {
			t.Fatalf("arrival %d due at %v is out of order or past the phase", i, r.Due)
		}
		if r.Custom {
			custom++
		}
		second += r.Model
	}
	// The load offered is the same under every seed: rate x phase arrivals
	// and the exact class shares.
	if len(a) != 500 || custom != 100 || second != 50 {
		t.Fatalf("%d arrivals, %d with features, %d for the second model; want 500, 100, 50", len(a), custom, second)
	}
}

// A request is timed from its origin (the due time in an open loop), not
// from when the generator got round to sending it; and a wrong logit fails
// the request.
func TestSendTimesFromOriginAndChecksLogits(t *testing.T) {
	answer := [][]float32{{0, 0}, {0, 0}, {0, 0}, {0, 0}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"logits": answer, "timing": map[string]float64{"kernel_ms": 1.5}})
	}))
	defer srv.Close()
	lg := &loadgen{
		w: workload{Models: []string{"GCN"}}, client: srv.Client(), url: srv.URL, numV: 8,
		ref: [][2]*tensor.Dense{{tensor.NewDense(8, 2), nil}},
	}
	s := lg.send(plannedReq{}, time.Now().Add(-50*time.Millisecond), false)
	if s.failed || s.latMS < 50 || s.lateMS < 50 || s.kernelMS != 1.5 {
		t.Fatalf("sample %+v: want ok, latency and lateness of at least 50 ms, kernel 1.5 ms", s)
	}
	answer[2][1] = 0.01
	if s := lg.send(plannedReq{}, time.Now(), false); !s.failed {
		t.Fatal("a logit 0.01 off the reference passed the check")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "kid", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "kid", Start: 20, End: 50},   // overlaps span 2
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "grandkid", Start: 25, End: 45},
	}
	got := selfTimes(spans)
	want := map[string]int64{"parent": 50, "kid": 20 + 10, "late": 30, "grandkid": 20}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestTracerRecordsParentsAndPauses(t *testing.T) {
	var none *tracer
	none.end(none.begin("x", 0)) // a nil tracer is the untraced run
	tr := newTracer("w")
	root := tr.begin("root", 0)
	kid := tr.begin("kid", root)
	tr.end(kid)
	tr.setOff(true)
	tr.end(tr.begin("unseen", root))
	tr.setOff(false)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Workload != "w" || spans[1].End < spans[1].Start || spans[0].End < spans[1].End {
		t.Fatalf("spans %+v", spans)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNamesAndBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) || d.Better != "lower" && d.Better != "higher" || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %+v is malformed", d)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "-C", "benchmark", "."}) || !reflect.DeepEqual(file.Paths, []string{"benchmark"}) || file.RunSeconds != 10 {
		t.Errorf("command %v, paths %v, run_seconds %d", file.Command, file.Paths, file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q / %q", i, file.Workloads[i], w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program's table:\n%+v\n%+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's table")
	}
	if file.EndToEnd[0].Name != "setup_s" || file.EndToEnd[0].Unit != "s" || file.EndToEnd[0].Better != "lower" {
		t.Errorf("the set-up metric must be setup_s, in s, lower is better")
	}
}

// Every metric is computed per process and the run reports the median
// process; rss_mb_peak is the mean.
func TestEndToEndMetricsTakeTheMedianProcess(t *testing.T) {
	m := endToEndMetrics([]phase{
		{SetupS: 1, RSSMiB: 10, LatMS: []float64{1, 2, 3}, FwdMS: []float64{1, 1, 1}, Good: 3, Passes: 3, Seconds: 1},
		{SetupS: 9, RSSMiB: 30, LatMS: []float64{4, 5}, FwdMS: []float64{2, 2}, Good: 1, Passes: 2, Seconds: 0.5},
		{SetupS: 2, RSSMiB: 20, LatMS: []float64{6}, FwdMS: []float64{3}, Good: 1, Passes: 1, Seconds: 0.5},
	})
	want := map[string]float64{"setup_s": 2, "rss_mb_peak": 20, "lat_ms_p50": 4.5, "lat_ms_p90": 4.9, "fwd_ms_p50": 2, "fwd_per_s": 3, "goodput_rps": 2}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("got %v, want %v", m, want)
	}
}

// What a run prints is exactly the vocabulary of its kind.
func TestCompleteLeavesTheRunsVocabulary(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := newResult(workloads[0], options{trace: traced})
		r.set("setup_s", 1)
		r.set("core.agg_ms", 2)
		r.complete()
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(r.Metrics) != len(defs) {
			t.Fatalf("traced=%v: %d metrics, want %d", traced, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s missing or in unit %q", traced, d.Name, m.Unit)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.07}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.07}
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same", steady, []float64{101, 100, 102, 101}, lower, verdictOK},
		{"slower", steady, []float64{110, 111, 109, 110}, lower, verdictRegression},
		{"faster", steady, []float64{80, 81, 79, 80}, lower, verdictOK},
		{"rate fell", steady, []float64{90, 91, 89, 90}, higher, verdictRegression},
		{"rate rose", steady, []float64{110, 111, 109, 110}, higher, verdictOK},
		{"noisy", []float64{100, 120, 90, 105}, []float64{102, 95, 125, 99}, lower, verdictUnresolved},
		{"noisy but every run better", []float64{100, 120, 90, 105}, []float64{60, 80, 70, 50}, lower, verdictOK},
		{"single runs", []float64{100}, []float64{106}, lower, verdictOK},
		{"single runs, slower", []float64{100}, []float64{108}, lower, verdictRegression},
	} {
		if got, _, _ := judge(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareExitCodes(t *testing.T) {
	mk := func(lat float64, failed int) runFile {
		r := newResult(workloads[0], options{})
		r.Attempted, r.Failed = 10, failed
		r.set("lat_ms_p50", lat)
		r.complete()
		return runFile{Runs: map[string][]Result{workloads[0].Name: {r, r}}}
	}
	var out bytes.Buffer
	if code := compareRuns(mk(10, 0), mk(10.2, 0), &out); code != 0 {
		t.Errorf("equal runs: exit %d\n%s", code, out.String())
	}
	if code := compareRuns(mk(10, 0), mk(15, 0), &out); code != 1 || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("a 50%% slower median: exit %d\n%s", code, out.String())
	}
	if code := compareRuns(mk(10, 0), mk(10, 1), &out); code != 1 {
		t.Errorf("failed operations on b: exit %d", code)
	}
}

// Every in-process workload, on CO with a short phase: the untraced phase
// reports every end-to-end metric it owns and no failure, and the traced
// profile replays exactly the compiled steps.
func TestSmokeInproc(t *testing.T) {
	for _, w := range workloads {
		if w.Serve {
			continue
		}
		w := w
		w.Dataset = "CO"
		t.Run(w.Name, func(t *testing.T) {
			o := options{seed: 3, seconds: 1, smoke: true}
			s, err := setupInproc(w, o.seed)
			if err != nil {
				t.Fatal(err)
			}
			rep := measureInproc(s, w, o)
			if rep.Failed != 0 || rep.Attempted < 1 || rep.Error != "" {
				t.Fatalf("attempted %d, failed %d: %s", rep.Attempted, rep.Failed, rep.Error)
			}
			rep.Phase.SetupS = 0.5
			e2e := endToEndMetrics([]phase{*rep.Phase, *rep.Phase, *rep.Phase})
			for _, d := range endToEnd {
				if e2e[d.Name] <= 0 {
					t.Errorf("%s = %g, want > 0", d.Name, e2e[d.Name])
				}
			}
			if len(e2e) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics, want %d", len(e2e), len(endToEnd))
			}

			o.seconds = 0.3
			tr := newTracer(w.Name)
			prof, err := profileModel(w, o, tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := prof.s.checkOracle(w.Classes); err != nil {
				t.Fatal(err)
			}
			m := prof.metrics
			if prof.failed != 0 || len(prof.steps) != int(m["program.steps"]) || len(prof.steps) == 0 {
				t.Fatalf("failed %d, %d replayed steps, program.steps %g", prof.failed, len(prof.steps), m["program.steps"])
			}
			for _, name := range []string{"machine.copy_gbps", "machine.gemm_gflops", "models.compile_ms", "schedule.tune_ms", "program.run_ms_p50", "core.kernel_share", "tensor.dense_share"} {
				if m[name] <= 0 {
					t.Errorf("%s = %g, want > 0", name, m[name])
				}
			}
			if w.ShardArm && (m["shard.run_ms_p50"] <= 0 || m["shard.partition_ms"] <= 0) {
				t.Errorf("shard arm did not run: %v", m)
			}
			if w.WaveArm && m["program.wave_run_ms_p50"] <= 0 {
				t.Errorf("wave arm did not run")
			}
			known := map[string]bool{}
			for _, d := range perLayer {
				known[d.Name] = true
			}
			for name := range m {
				if !known[name] {
					t.Errorf("profile reports %q, which BENCHMARK.json does not name", name)
				}
			}
			if len(tr.snapshot()) == 0 {
				t.Error("the traced run recorded no span")
			}
		})
	}
}
