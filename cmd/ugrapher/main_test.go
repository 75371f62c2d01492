package main

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/vec"
)

// TestMain runs the command itself, with the test binary's arguments as its
// flags, when a test re-executes the binary with cliChildEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(cliChildEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const cliChildEnv = "GO_WANT_CLI_MAIN"

// runCLI runs ugrapher with args in a child process and returns its combined
// output and exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), cliChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestBackendAndShardsFlags: -backend names the one backend every kernel
// lowers onto, and a name that is no backend is a usage error (exit 2), not a
// silent switch to parallel. -shards is a usage error too: sharding is not an
// option of the command.
func TestBackendAndShardsFlags(t *testing.T) {
	model := []string{"-dataset", "CO", "-model", "GCN", "-runs", "1"}
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-backend", "reference"}, 0, "backend=reference"},
		{[]string{"-backend", "resilient"}, 0, "backend=resilient"},
		{[]string{"-backend", "sim"}, 2, "parallel, resilient, reference"},
		{[]string{"-shards", "4"}, 2, "flag provided but not defined: -shards"},
	} {
		out, code := runCLI(t, append(model, c.args...)...)
		if code != c.code || !strings.Contains(out, c.want) {
			t.Errorf("%v: exit %d, output %q; want exit %d and %q", c.args, code, out, c.code, c.want)
		}
	}
}

// TestWidthFlags: a feature or class width, a run count or a candidate count
// below 1, or a schedule that does not parse, is a usage error (exit 2) that
// names the flag, caught before any tensor is shaped from it.
func TestWidthFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-model", "GCN", "-dataset", "CO", "-feat", "-1"}, "-feat"},
		{[]string{"-model", "GCN", "-dataset", "CO", "-classes", "-3"}, "-classes"},
		{[]string{"-model", "GCN", "-dataset", "CO", "-runs", "-3"}, "-runs"},
		{[]string{"-model", "GCN", "-dataset", "CO", "-runs", "0"}, "-runs"},
		{[]string{"-op", "copy_u.sum", "-dataset", "CO", "-tune", "-top", "-2"}, "-top"},
		{[]string{"-op", "copy_u.sum", "-dataset", "CO", "-feat", "-2"}, "-feat"},
		{[]string{"-op", "copy_u.sum", "-dataset", "CO", "-schedule", "XX_G0"}, "-schedule"},
		{[]string{"-op", "copy_u.sum", "-dataset", "CO", "-schedule", "TV_G0_T1"}, "-schedule"},
		{[]string{"-op", "u_mul_e.sum", "-dataset", "CO", "-schedule", "WE_G-4_T1"}, "-schedule"},
	} {
		out, code := runCLI(t, c.args...)
		if code != 2 || !strings.Contains(out, c.flag) || strings.Contains(out, "goroutine") {
			t.Errorf("%v: exit %d, output %q; want exit 2 naming %s and no goroutine dump", c.args, code, out, c.flag)
		}
	}
}

// TestModelTimeoutCutsDenseStep drives the -model path the way main does
// with -timeout set: a GEMM-dominated model (SageMean, hidden 256) whose
// dense steps are split over two workers and slowed so that one pass would
// take seconds. The budget must expire inside a dense step, come back as
// context.DeadlineExceeded — exit code 3 — and do so promptly, not after
// the step has run to completion.
func TestModelTimeoutCutsDenseStep(t *testing.T) {
	defer faultinject.Reset()
	// Two workers whatever the host has, so the dense steps split.
	backend := core.NewParallelBackend(2)

	rng := rand.New(rand.NewSource(1))
	const n = 400
	b := graph.NewBuilder(n)
	for i := 0; i < 6*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The input width that gives a pass ~100 dense chunks: chunks are cut by
	// estimated duration, and the vector GEMM costs an eighth of the Go loop
	// per flop.
	feat := 64
	if vec.Enabled() {
		feat = 512
	}

	// Unslowed, the run fits any budget; this also measures how long the
	// set-up (load, tune, compile) takes here, which the budget must cover.
	start := time.Now()
	if err := runModel(context.Background(), backend, "", path, "SMean", feat, 8, 1, false, false, false); err != nil {
		t.Fatal(err)
	}
	budget := 2*time.Since(start) + 200*time.Millisecond

	// 25 ms per dense chunk, ~100 chunks a pass over two workers: more than
	// a second per pass, so the budget runs out during the warm-up pass.
	faultinject.Arm(faultinject.SlowDenseChunk, faultinject.Spec{After: 1, Every: 1, Delay: 25 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start = time.Now()
	err = runModel(ctx, backend, "", path, "SMean", feat, 8, 1, false, false, false)
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if code := exitCode(err); code != 3 {
		t.Errorf("exit code %d, want 3", code)
	}
	if faultinject.Calls(faultinject.SlowDenseChunk) == 0 {
		t.Error("the budget expired before any dense chunk ran; the test did not reach a dense step")
	}
	if took > budget+500*time.Millisecond {
		t.Errorf("run took %v against a %v budget: the dense step was not cut between chunks", took, budget)
	}
}
