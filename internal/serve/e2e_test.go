// Black-box end-to-end tests: build the real ugrapher-serve binary with
// the race detector enabled, run it as a child process, and prove the
// serving-layer guarantees from the outside — fast 429 backpressure with
// healthy traffic unaffected, breaker-gated degradation with
// reference-correct outputs, and SIGTERM drain ordering. Faults are armed
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
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/models"
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
	Batched  int         `json:"batched"`
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
// the reference interpreter's Forward with the daemon's seeds (features
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
	want, err := m.Forward(g, x, 8, eng)
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

// TestE2EBreakerDegradesToReference: acceptance (b) — sustained injected
// kernel panics trip the breaker; subsequent requests succeed via the
// resilient fallback with outputs matching the reference oracle to 1e-4. GAT
// is served beside GCN because its graph kernels are row-resident regions:
// their fallback reruns the recorded edge-softmax steps on the reference
// interpreter, and that too must be the oracle's answer.
func TestE2EBreakerDegradesToReference(t *testing.T) {
	d := startDaemon(t, "-models", "GCN,GAT", "-breaker-threshold", "2",
		"-breaker-cooldown", "5m", "-faults", "kernel-panic-load:every=1")
	for _, model := range []string{"GCN", "GAT"} {
		want := oracleLogits(t, model)

		// Below the threshold the breaker is closed and failures surface.
		for i := 0; i < 2; i++ {
			code, _, _ := infer(t, d, e2eInferRequest{Model: model, Vertices: []int{3}})
			if code != http.StatusInternalServerError {
				t.Fatalf("%s request %d: status %d, want 500 while breaker closed", model, i, code)
			}
		}
		// Tripped: service continues, degraded, and numerically correct.
		vertices := []int{3, 42, 2707}
		for i := 0; i < 3; i++ {
			code, resp, _ := infer(t, d, e2eInferRequest{Model: model, Vertices: vertices})
			if code != http.StatusOK {
				t.Fatalf("%s degraded request %d: status %d, want 200 (output:\n%s)", model, i, code, d.output())
			}
			if !resp.Degraded {
				t.Errorf("%s: open breaker served degraded=false", model)
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
	// The breaker state and the degradation are visible to operators.
	resp, err := http.Get(d.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		`ugrapher_serve_breaker_transitions_total{model="GCN",to="open"} 1`,
		`ugrapher_serve_degraded_total{model="GCN"} 3`,
		`ugrapher_serve_breaker_transitions_total{model="GAT",to="open"} 1`,
		`ugrapher_serve_degraded_total{model="GAT"} 3`,
		`ugrapher_program_slab_bytes{model="GCN"} 0`,
	} {
		if !bytes.Contains(metrics, []byte(series)) {
			t.Errorf("metrics missing %q", series)
		}
	}
	if !bytes.Contains(metrics, []byte(`ugrapher_fallbacks_total`)) {
		t.Error("metrics missing ugrapher_fallbacks_total")
	}
	if bytes.Contains(metrics, []byte(`ugrapher_program_slab_bytes{model="GAT"} 0`)) || !bytes.Contains(metrics, []byte(`ugrapher_program_slab_bytes{model="GAT"}`)) {
		t.Error("GAT's row-resident regions report no slab bytes")
	}
}

// TestE2EDrainOnSIGTERM: acceptance (c) — SIGTERM flips /readyz unready
// while the listener still answers, refuses new work, completes the
// in-flight batch, and exits 0.
func TestE2EDrainOnSIGTERM(t *testing.T) {
	// The daemon has no backend selection (every model runs the parallel
	// backend under the resilient ladder), so UGRAPHER_BACKEND — even a value
	// no CLI would accept — is not its business and must not stop it.
	t.Setenv("UGRAPHER_BACKEND", "cuda")
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
	// The in-flight batch completes rather than being dropped.
	select {
	case code := <-inflight:
		if code != http.StatusOK {
			t.Errorf("in-flight request during drain: status %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	// And the process exits 0 under the drain budget.
	select {
	case err := <-d.waited:
		if err != nil {
			t.Fatalf("daemon exit: %v (want clean exit 0)\n%s", err, d.output())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not exit after drain")
	}
	if out := d.output(); !strings.Contains(out, "drained; exiting") {
		t.Errorf("daemon output missing drain confirmation:\n%s", out)
	}
}

// TestE2EBadEnvironmentExits2: the environment variables the daemon does read
// are validated at start-up — a bad value is exit code 2 naming the variable,
// not a daemon running on a silently substituted default.
func TestE2EBadEnvironmentExits2(t *testing.T) {
	for _, env := range []string{"UGRAPHER_SHARDS=banana", "UGRAPHER_WORKERS=-4"} {
		// Bounded: a daemon that accepted the value would listen forever.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, serveBinary(t), "-addr", "127.0.0.1:0")
		cmd.Env = append(os.Environ(), env)
		out, err := cmd.CombinedOutput()
		cancel()
		name, _, _ := strings.Cut(env, "=")
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !bytes.Contains(out, []byte(name)) {
			t.Errorf("%s: err %v, output %q; want exit code 2 naming %s", env, err, out, name)
		}
	}
}
