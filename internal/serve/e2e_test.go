// Black-box end-to-end tests: build the real ugrapher-serve binary with
// the race detector enabled, run it as a child process, and prove the
// serving-layer guarantees from the outside — fast 429 backpressure with
// healthy traffic unaffected, degradation onto the reference interpreter
// with reference-correct outputs, and SIGTERM drain ordering. Faults are armed
// in the child via its -faults flag; expected outputs are computed
// in-process from the same deterministic seeds the daemon uses.
package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/models"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// buildOnce builds the race-instrumented daemon binary a single time for
// the whole suite.
var buildOnce struct {
	sync.Once
	bin string
	err error
}

func serveBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ugrapher-serve-e2e-*")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "ugrapher-serve")
		cmd := exec.Command("go", "build", "-race", "-o", bin, "repro/cmd/ugrapher-serve")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildOnce.err = fmt.Errorf("go build -race: %v\n%s", err, out)
			return
		}
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return buildOnce.bin
}

// daemon is one running child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stdout *bytes.Buffer // lines after the handshake, for assertions
	mu     sync.Mutex
	waited chan error
}

// startDaemon launches the binary with args (plus -addr 127.0.0.1:0) and
// waits for the "listening on" handshake.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	bin := serveBinary(t)
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard // resilient-fallback logging is expected noise here
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stdout: &bytes.Buffer{}, waited: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "listening on "); ok {
				addrc <- a
				continue
			}
			d.mu.Lock()
			fmt.Fprintln(d.stdout, line)
			d.mu.Unlock()
		}
	}()
	go func() { d.waited <- cmd.Wait() }()
	select {
	case a := <-addrc:
		d.addr = a
	case err := <-d.waited:
		t.Fatalf("daemon exited before listening: %v\n%s", err, d.output())
	case <-time.After(3 * time.Minute):
		_ = cmd.Process.Kill()
		t.Fatal("daemon did not print the listening handshake in time")
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			_ = d.cmd.Process.Kill()
			<-d.waited
		}
	})
	return d
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stdout.String()
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// e2e wire types mirror the daemon's JSON contract.
type e2eInferRequest struct {
	Model     string `json:"model"`
	Vertices  []int  `json:"vertices"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

type e2eInferResponse struct {
	Model    string      `json:"model"`
	Logits   [][]float32 `json:"logits"`
	Degraded bool        `json:"degraded"`
}

// infer posts one request; decode failures report via Errorf so callers
// may run in goroutines.
func infer(t *testing.T, d *daemon, req e2eInferRequest) (int, e2eInferResponse, http.Header) {
	t.Helper()
	var out e2eInferResponse
	body, _ := json.Marshal(req)
	resp, err := http.Post(d.url("/v1/infer"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Errorf("post: %v", err)
		return 0, out, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read: %v", err)
		return 0, out, nil
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Errorf("bad 200 body %q: %v", raw, err)
			return 0, out, nil
		}
	}
	return resp.StatusCode, out, resp.Header
}

func getStatus(t *testing.T, d *daemon, path string) int {
	t.Helper()
	resp, err := http.Get(d.url(path))
	if err != nil {
		t.Errorf("get %s: %v", path, err)
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// oracleLogits recomputes, in this process, what the daemon must serve:
// the reference interpreter's ForwardCtx with the daemon's seeds (features
// 42, model weights 1234) on the same dataset/shape defaults.
func oracleLogits(t *testing.T, model string) *tensor.Dense {
	t.Helper()
	g, _, err := datasets.Load("CO")
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewDense(g.NumVertices(), 16)
	x.FillRandom(rand.New(rand.NewSource(42)), 1)
	eng := models.NewTunedEngine(gpu.V100())
	eng.Compute = core.ReferenceBackend()
	want, err := models.ForwardCtx(context.Background(), m, g, x, 8, eng)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestE2EQueueFullFastReject: acceptance (a) — with one model's worker
// stalled and its bounded queue full, overflow requests are rejected 429
// within 10ms, while a second model's traffic completes normally.
func TestE2EQueueFullFastReject(t *testing.T) {
	d := startDaemon(t, "-models", "GCN,GIN", "-queue", "2",
		"-faults", "queue-stall:after=1,limit=1,delay=2s")

	// First GCN request: its worker picks it up and stalls 2s (limit=1, so
	// GIN's worker is never affected). Everything else sent to GCN during
	// the stall sits in — or overflows — the depth-2 queue.
	stalled := make(chan int, 3)
	go func() {
		code, _, _ := infer(t, d, e2eInferRequest{Model: "GCN", Vertices: []int{0}, TimeoutMS: 10000})
		stalled <- code
	}()
	time.Sleep(300 * time.Millisecond) // worker is now inside the stall
	for i := 0; i < 2; i++ {           // fill the queue
		go func() {
			code, _, _ := infer(t, d, e2eInferRequest{Model: "GCN", Vertices: []int{1}, TimeoutMS: 10000})
			stalled <- code
		}()
	}
	time.Sleep(300 * time.Millisecond)

	// Overflow: 429, and fast — rejection is a non-blocking channel probe,
	// not a wait on the stalled worker.
	best := time.Hour
	rejections := 0
	for i := 0; i < 5; i++ {
		start := time.Now()
		code, _, hdr := infer(t, d, e2eInferRequest{Model: "GCN", Vertices: []int{2}})
		lat := time.Since(start)
		if code != http.StatusTooManyRequests {
			t.Fatalf("overflow request %d: status %d, want 429 (daemon output:\n%s)", i, code, d.output())
		}
		if hdr.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
		rejections++
		if lat < best {
			best = lat
		}
	}
	if best > 10*time.Millisecond {
		t.Errorf("fastest of %d rejections took %v, want < 10ms", rejections, best)
	}

	// Healthy traffic on the other model completes while GCN is wedged.
	code, resp, _ := infer(t, d, e2eInferRequest{Model: "GIN", Vertices: []int{0, 1}})
	if code != http.StatusOK || resp.Degraded {
		t.Errorf("healthy model during stall: status %d degraded=%v, want clean 200", code, resp.Degraded)
	}

	// The stalled/queued GCN requests all complete once the stall passes.
	for i := 0; i < 3; i++ {
		if code := <-stalled; code != http.StatusOK {
			t.Errorf("queued request %d: status %d, want 200", i, code)
		}
	}
}

// TestE2EBreakerDegradesToReference: acceptance (b) — the fallback ladder is
// the daemon's only circuit breaker. Under sustained injected kernel panics
// every request, the first one included, succeeds via the resilient fallback
// with outputs matching the reference oracle to 1e-4. GAT is served beside
// GCN because its graph kernels are row-resident regions: their fallback
// reruns the recorded edge-softmax steps on the reference interpreter, and
// that too must be the oracle's answer.
func TestE2EBreakerDegradesToReference(t *testing.T) {
	d := startDaemon(t, "-models", "GCN,GAT", "-faults", "kernel-panic-load:every=1")
	for _, model := range []string{"GCN", "GAT"} {
		want := oracleLogits(t, model)
		vertices := []int{3, 42, 2707}
		for i := 0; i < 3; i++ {
			code, resp, _ := infer(t, d, e2eInferRequest{Model: model, Vertices: vertices})
			if code != http.StatusOK {
				t.Fatalf("%s request %d: status %d, want 200 (output:\n%s)", model, i, code, d.output())
			}
			if !resp.Degraded {
				t.Errorf("%s request %d: failing kernels served degraded=false", model, i)
			}
			for j, v := range vertices {
				row := want.Data[v*want.Cols : (v+1)*want.Cols]
				diff := 0.0
				for k := range row {
					if dv := math.Abs(float64(resp.Logits[j][k]) - float64(row[k])); dv > diff {
						diff = dv
					}
				}
				if diff > 1e-4 {
					t.Errorf("%s degraded vertex %d: maxdiff %g vs reference", model, v, diff)
				}
			}
		}
	}
	// The degradation is visible to operators, counted once per request.
	metrics := scrape(t, d)
	for _, series := range []string{
		`ugrapher_serve_degraded_total{model="GCN"} 3`,
		`ugrapher_serve_degraded_total{model="GAT"} 3`,
		`ugrapher_program_slab_bytes{model="GCN"} 0`,
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("metrics missing %q", series)
		}
	}
	if m := regexp.MustCompile(`(?m)^ugrapher_fallbacks_total (\d+)$`).FindStringSubmatch(metrics); m == nil || m[1] == "0" {
		t.Errorf("ugrapher_fallbacks_total is %v, want > 0", m)
	}
	if strings.Contains(metrics, `ugrapher_program_slab_bytes{model="GAT"} 0`) || !strings.Contains(metrics, `ugrapher_program_slab_bytes{model="GAT"}`) {
		t.Error("GAT's row-resident regions report no slab bytes")
	}
}

// scrape returns the daemon's /metrics text.
func scrape(t *testing.T, d *daemon) string {
	t.Helper()
	resp, err := http.Get(d.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(metrics)
}

// TestE2EDrainOnSIGTERM: acceptance (c) — SIGTERM flips /readyz unready
// while the listener still answers, refuses new work, completes the
// in-flight request, and exits 0.
func TestE2EDrainOnSIGTERM(t *testing.T) {
	d := startDaemon(t, "-models", "GCN", "-drain-timeout", "10s",
		"-faults", "queue-stall:after=1,limit=1,delay=1500ms")

	if code := getStatus(t, d, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}

	// Put one request in flight; its worker stalls 1.5s.
	inflight := make(chan int, 1)
	go func() {
		code, _, _ := infer(t, d, e2eInferRequest{Model: "GCN", Vertices: []int{5}, TimeoutMS: 10000})
		inflight <- code
	}()
	time.Sleep(300 * time.Millisecond)

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// readyz flips unready before the listener closes: the endpoint must
	// answer 503 (a closed listener would refuse the connection instead).
	flipped := false
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.url("/readyz"))
		if err != nil {
			t.Fatalf("readyz unreachable during drain (listener closed early?): %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			flipped = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !flipped {
		t.Fatal("readyz never flipped unready after SIGTERM")
	}
	// New work is refused during the drain window.
	if code, _, _ := infer(t, d, e2eInferRequest{Model: "GCN", Vertices: []int{0}}); code != http.StatusServiceUnavailable {
		t.Errorf("infer during drain: status %d, want 503", code)
	}
	// The in-flight request completes rather than being dropped.
	select {
	case code := <-inflight:
		if code != http.StatusOK {
			t.Errorf("in-flight request during drain: status %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	// And the process exits 0 under the drain budget.
	waitExit(t, d, 20*time.Second)
	if out := d.output(); !strings.Contains(out, "drained; exiting") {
		t.Errorf("daemon output missing drain confirmation:\n%s", out)
	}
}

// waitExit waits for the daemon to exit and fails unless it exits 0 within
// budget.
func waitExit(t *testing.T, d *daemon, budget time.Duration) {
	t.Helper()
	select {
	case err := <-d.waited:
		if err != nil {
			t.Fatalf("daemon exit: %v (want clean exit 0)\n%s", err, d.output())
		}
	case <-time.After(budget):
		t.Fatalf("daemon did not exit within %v of SIGTERM", budget)
	}
}

// TestE2ESIGTERMRightAfterHandshake: a SIGTERM sent the moment the daemon
// says it is listening drains like any other — exit 0, trace file written —
// rather than killing a process whose handler is not yet in place.
func TestE2ESIGTERMRightAfterHandshake(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	d := startDaemon(t, "-models", "GCN", "-trace", tracePath)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, d, 20*time.Second)
	if _, err := os.Stat(tracePath); err != nil {
		t.Errorf("trace file not written: %v\n%s", err, d.output())
	}
}

// TestE2EIdleConnectionDoesNotHoldTheDrain: a connection dialed and never
// used is not work in flight. The daemon exits 0 across it, well inside the
// drain budget, instead of waiting on it and exiting 1.
func TestE2EIdleConnectionDoesNotHoldTheDrain(t *testing.T) {
	d := startDaemon(t, "-models", "GCN", "-drain-timeout", "10s")
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, d, 4*time.Second)
}

// TestE2EBadShardsExits2: a flag value outside its range — -shards outside
// [0, shard.MaxShards], a queue depth, feature width, class count or
// duration that is not positive — is exit code 2 naming the flag, not a
// daemon serving a default in its place.
func TestE2EBadShardsExits2(t *testing.T) {
	shards := fmt.Sprintf("valid: 0 (auto) through %d", shard.MaxShards)
	for _, c := range []struct{ flag, value, rule string }{
		{"-shards", "99999", shards},
		{"-shards", "-7", shards},
		{"-queue", "0", "valid: 1 through"},
		{"-feat", "0", "must be positive"},
		{"-feat", "-1", "must be positive"},
		{"-classes", "-3", "must be positive"},
		{"-timeout", "-1s", "must be positive"},
		{"-max-timeout", "0s", "must be positive"},
		{"-drain-timeout", "0s", "must be positive"},
	} {
		// Bounded: a daemon that accepted the value would listen forever.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, serveBinary(t), "-addr", "127.0.0.1:0", c.flag, c.value).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		named := "invalid " + c.flag + " " + c.value + " ("
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), named) || !strings.Contains(string(out), c.rule) {
			t.Errorf("%s %s: err %v, output %q; want exit code 2 naming %q and %q", c.flag, c.value, err, out, named, c.rule)
		}
	}
}

// docFlagRe matches a command-line flag token: a dash after a space, a
// backtick or an opening bracket, then a lower-case name.
var docFlagRe = regexp.MustCompile("(?:^|[\\s`(\\[])(-[a-z][a-z0-9-]*)")

// foreignFlags are flags the daemon's documentation gives to other tools.
var foreignFlags = map[string]string{"-s": "curl", "-si": "curl", "-d": "curl", "-race": "go build"}

// docSection returns the lines of the markdown file from the heading that
// starts with heading up to the next heading of the same or a higher level
// (a "#" line inside a fenced code block is a shell comment, not a heading).
func docSection(t *testing.T, file, heading string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	level := strings.Index(heading, " ")
	var out []string
	in, fenced := false, false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if in {
			if n := strings.Index(line, " "); !fenced && n > 0 && n <= level && strings.Trim(line[:n], "#") == "" {
				break
			}
			out = append(out, line)
		} else if strings.HasPrefix(line, heading) {
			in = true
		}
	}
	if !in {
		t.Fatalf("%s has no section %q", file, heading)
	}
	return strings.Join(out, "\n")
}

// TestE2EDocumentedFlagsExist: every flag the serving docs show — README's
// quick-start and tracing sections, DESIGN.md §13 — is one `ugrapher-serve -h`
// lists, and a flag the daemon does not have is a usage error (exit 2).
func TestE2EDocumentedFlagsExist(t *testing.T) {
	bin := serveBinary(t)
	help, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, help)
	}
	have := map[string]bool{}
	for _, line := range strings.Split(string(help), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(line, "  -") {
			have[f[0]] = true
		}
	}
	if len(have) < 10 {
		t.Fatalf("-h lists %d flags:\n%s", len(have), help)
	}
	for _, sec := range []struct{ file, heading string }{
		{"README.md", "### Serving quick-start"},
		{"README.md", "### Tracing and profiling the daemon"},
		{"DESIGN.md", "## 13. "},
	} {
		for _, m := range docFlagRe.FindAllStringSubmatch(docSection(t, sec.file, sec.heading), -1) {
			if flag := m[1]; !have[flag] && foreignFlags[flag] == "" {
				t.Errorf("%s %q shows %s, which ugrapher-serve -h does not list", sec.file, sec.heading, flag)
			}
		}
	}

	for _, gone := range [][]string{{"-batch", "8"}, {"-breaker-threshold", "2"}, {"-parallel-steps"}} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		out, err := exec.CommandContext(ctx, bin, append(gone, "-addr", "127.0.0.1:0")...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !bytes.Contains(out, []byte(gone[0])) {
			t.Errorf("%v: err %v, output %q; want exit code 2 naming the unknown flag", gone, err, out)
		}
	}
}

// tableNameRe matches a backticked metric name in a table cell; braceRe the
// first {...} group of a name, labelsRe a trailing one (the labels).
var (
	tableNameRe = regexp.MustCompile("`(ugrapher_[^`]*)`")
	braceRe     = regexp.MustCompile(`^(.*?)\{([^}]*)\}(.*)$`)
	labelsRe    = regexp.MustCompile(`\{[^}]*\}$`)
)

// expandMetric turns a table name such as ugrapher_program_{arena,packed}_bytes or
// ugrapher_step_wall_seconds{model,step} into the families it names.
func expandMetric(name string) []string {
	name = labelsRe.ReplaceAllString(name, "")
	m := braceRe.FindStringSubmatch(name)
	if m == nil {
		return []string{name}
	}
	var out []string
	for _, alt := range strings.Split(m[2], ",") {
		out = append(out, expandMetric(m[1]+alt+m[3])...)
	}
	return out
}

// readerTestRe matches a test a "read by" cell names, readerBenchRe a
// benchmark metric.
var (
	readerTestRe  = regexp.MustCompile("`(Test[A-Za-z0-9_]*)`")
	readerBenchRe = regexp.MustCompile("benchmark `([^`]*)`")
)

// definedTests is the set of Test functions the module's test files define,
// benchmark/ and examples/ included.
func definedTests(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func (Test\w+)\(t \*testing\.T\)`)
	defined := map[string]bool{}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	if err != nil || len(defined) < 100 {
		t.Fatalf("found %d tests under %s (err %v)", len(defined), root, err)
	}
	return defined
}

// benchmarkMetrics is the set of metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names[m.Name] = true
	}
	return names
}

// TestE2EMetricsTableMatchesDaemon: DESIGN.md §8's metrics table and the
// families a running daemon exports on /metrics name the same set, in both
// directions, and every row names its reader: a test that exists, a metric
// BENCHMARK.json declares, or a procedure. The daemon runs with a failing
// kernel, so the failure series are exported too.
func TestE2EMetricsTableMatchesDaemon(t *testing.T) {
	tests, bench := definedTests(t), benchmarkMetrics(t)
	documented := map[string]bool{}
	for _, line := range strings.Split(docSection(t, "DESIGN.md", "## 8. "), "\n") {
		cells := strings.Split(strings.ReplaceAll(line, `\|`, ""), "|")
		if len(cells) < 3 || !tableNameRe.MatchString(cells[1]) {
			continue
		}
		for _, m := range tableNameRe.FindAllStringSubmatch(cells[1], -1) {
			for _, f := range expandMetric(m[1]) {
				documented[f] = true
			}
		}
		if len(cells) != 6 {
			t.Errorf("DESIGN.md §8 row %s has %d columns, want metric | kind | meaning | read by", cells[1], len(cells)-2)
			continue
		}
		reader := cells[4]
		if strings.TrimSpace(reader) == "" {
			t.Errorf("DESIGN.md §8 row %s names no reader", cells[1])
		}
		for _, m := range readerTestRe.FindAllStringSubmatch(reader, -1) {
			if !tests[m[1]] {
				t.Errorf("DESIGN.md §8 row %s is read by %s, which no test file defines", cells[1], m[1])
			}
		}
		for _, m := range readerBenchRe.FindAllStringSubmatch(reader, -1) {
			if !bench[m[1]] {
				t.Errorf("DESIGN.md §8 row %s is read by benchmark %s, which BENCHMARK.json does not declare", cells[1], m[1])
			}
		}
	}
	if len(documented) < 20 {
		t.Fatalf("DESIGN.md §8's table names %d metric families", len(documented))
	}

	d := startDaemon(t, "-models", "GCN", "-faults", "kernel-panic-load:every=1")
	if code, _, _ := infer(t, d, e2eInferRequest{Model: "GCN", Vertices: []int{0}}); code != http.StatusOK {
		t.Fatalf("infer: status %d", code)
	}
	exported := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (ugrapher_\S+) `).FindAllStringSubmatch(scrape(t, d), -1) {
		exported[m[1]] = true
	}
	for f := range exported {
		if !documented[f] {
			t.Errorf("the daemon exports %s, which DESIGN.md §8's table does not list", f)
		}
	}
	for f := range documented {
		if !exported[f] {
			t.Errorf("DESIGN.md §8's table lists %s, which the daemon does not export", f)
		}
	}
}
