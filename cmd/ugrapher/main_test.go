package main

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/vec"
)

// TestModelTimeoutCutsDenseStep drives the -model path the way main does
// with -timeout set: a GEMM-dominated model (SageMean, hidden 256) whose
// dense steps are split over two workers and slowed so that one pass would
// take seconds. The budget must expire inside a dense step, come back as
// context.DeadlineExceeded — exit code 3 — and do so promptly, not after
// the step has run to completion.
func TestModelTimeoutCutsDenseStep(t *testing.T) {
	defer faultinject.Reset()
	// Two workers whatever the host has, so the dense steps split.
	t.Setenv("UGRAPHER_WORKERS", "2")
	if err := core.SetDefaultBackend("parallel"); err != nil {
		t.Fatal(err)
	}

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
	if err := runModel(context.Background(), "", path, "SMean", feat, 8, 1, false, false, false); err != nil {
		t.Fatal(err)
	}
	budget := 2*time.Since(start) + 200*time.Millisecond

	// 25 ms per dense chunk, ~100 chunks a pass over two workers: more than
	// a second per pass, so the budget runs out during the warm-up pass.
	faultinject.Arm(faultinject.SlowDenseChunk, faultinject.Spec{After: 1, Every: 1, Delay: 25 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start = time.Now()
	err = runModel(ctx, "", path, "SMean", feat, 8, 1, false, false, false)
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
