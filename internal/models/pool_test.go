package models

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// denseGraph is the test graph the worker-pool suites run on: 1400 vertices
// and 11200 edges, so at feature width poolInFeat every graph kernel is above
// core's smallWork and the widest GEMM of every model (GCN's inFeat x 16
// included) is above program's dense inline threshold.
func denseGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 1400
	b := graph.NewBuilder(n)
	for i := 0; i < 8*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// poolInFeat is the input width of the worker-pool suites. The inline
// threshold is a duration, and the vector GEMM costs an eighth of the Go loop
// per flop, so crossing it on 1400 rows takes eight times the width — at
// which a pass takes the vector kernels about as long as the narrow one
// takes the Go loop.
func poolInFeat() int {
	if vec.Enabled() {
		return 512
	}
	return 64
}

// poolEngine fixes every schedule so compiles are cheap and deterministic.
// Vertex-parallel aggregation keeps one owner per output row, so a graph
// kernel's result does not depend on the worker count either and whole-model
// outputs can be compared bit for bit across worker counts.
func poolEngine(workers int) *FixedEngine {
	return &FixedEngine{
		EngineName:   "pool-test",
		Dev:          gpu.V100(),
		AggrSchedule: core.Schedule{Strategy: core.ThreadVertex, Group: 1, Tile: 1},
		MsgCSchedule: core.DefaultSchedule,
		Fuses:        true,
		Compute:      core.NewShardedParallelBackend(workers, 1),
	}
}

func poolInput(g *graph.Graph, cols int) *tensor.Dense {
	x := tensor.NewDense(g.NumVertices(), cols)
	x.FillRandom(rand.New(rand.NewSource(5)), 1)
	return x
}

// splitSteps names cp's dense steps that run on the pool and counts its
// graph kernels that do.
func splitSteps(cp *program.CompiledProgram) (dense []string, kernels int) {
	for _, sm := range cp.StepModes() {
		switch {
		case sm.Workers <= 1:
		case sm.Op == "graph":
			kernels++
		default:
			dense = append(dense, sm.Name)
		}
	}
	return dense, kernels
}

// TestDenseSplitBitIdentical: splitting GEMM and elementwise steps into row
// ranges keeps every element's accumulation order, so at workers 2 and 4 —
// sequential and wave-parallel — all six models reproduce the workers=1
// output exactly (Equal, not AllClose).
func TestDenseSplitBitIdentical(t *testing.T) {
	g := denseGraph(t, 31)
	inFeat, classes := poolInFeat(), 7
	x := poolInput(g, inFeat)
	defer program.SetParallelSteps(false)
	for _, m := range All() {
		base, err := CompileModel(m, g, inFeat, classes, poolEngine(1))
		if err != nil {
			t.Fatal(err)
		}
		if dense, _ := splitSteps(base); len(dense) != 0 {
			t.Fatalf("%s: dense steps %v split at workers=1; the single-worker path must stay inline", m.Name(), dense)
		}
		out, err := base.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		want := out.Clone()
		for _, workers := range []int{2, 4} {
			cp, err := CompileModel(m, g, inFeat, classes, poolEngine(workers))
			if err != nil {
				t.Fatal(err)
			}
			if dense, _ := splitSteps(cp); len(dense) == 0 {
				t.Fatalf("%s workers=%d: no dense step split; the graph is meant to cross the inline threshold", m.Name(), workers)
			}
			for _, parallel := range []bool{false, true} {
				program.SetParallelSteps(parallel)
				for rep := 0; rep < 3; rep++ {
					got, err := cp.Run(x)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s workers=%d parallel=%v: output differs from workers=1 (max diff %g)",
							m.Name(), workers, parallel, got.MaxDiff(want))
					}
				}
			}
		}
	}
}

// decoratedBackend wraps a backend the way a caller's timing or logging
// decorator does: through the interface, so Workers() is not forwarded.
type decoratedBackend struct{ core.ExecBackend }

// TestDenseSplitSeesThroughBackendDecorator: the worker count dense steps
// split over is also read off the lowered kernels, so a program compiled
// through a decorator splits exactly like one compiled on the bare backend.
func TestDenseSplitSeesThroughBackendDecorator(t *testing.T) {
	g := denseGraph(t, 35)
	inFeat, classes := poolInFeat(), 7
	bare := poolEngine(2)
	wrapped := poolEngine(2)
	wrapped.Compute = decoratedBackend{wrapped.Compute}
	if w := core.Workers(wrapped.Compute); w != 1 {
		t.Fatalf("decorator forwards Workers() = %d; the test needs one that hides it", w)
	}
	m := All()[5] // SageMean
	want, err := CompileModel(m, g, inFeat, classes, bare)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CompileModel(m, g, inFeat, classes, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	wantDense, _ := splitSteps(want)
	gotDense, _ := splitSteps(got)
	if len(wantDense) == 0 || len(gotDense) != len(wantDense) {
		t.Fatalf("decorated backend split dense steps %v, bare backend %v", gotDense, wantDense)
	}
}

// handCtx is a context the test ends itself, with the error a deadline would
// carry, at a point of the run it picks rather than at a time.
type handCtx struct {
	context.Context
	done chan struct{}
	mu   sync.Mutex
	err  error
}

func newHandCtx() *handCtx {
	return &handCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *handCtx) Done() <-chan struct{} { return c.done }

func (c *handCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *handCtx) end(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
		close(c.done)
	}
}

// TestDenseStepHonoursDeadlineAndCancel: a deadline or a cancel cuts a split
// dense step between chunks. Every dense chunk is slowed, and the context
// ends from inside the third slowed chunk — not after a wall-clock interval,
// which a fast GEMM or a throttled CPU would let fire before the first dense
// chunk or after the last. The run must come back with the context's error
// after only the chunks already claimed, and the program must produce the
// right answer on the next run.
func TestDenseStepHonoursDeadlineAndCancel(t *testing.T) {
	defer faultinject.Reset()
	g := denseGraph(t, 32)
	inFeat, classes := poolInFeat(), 7
	x := poolInput(g, inFeat)
	m := All()[5] // SageMean: GEMM-dominated
	cp, err := CompileModel(m, g, inFeat, classes, poolEngine(2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := cp.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	want := out.Clone()

	// How many dense chunks a whole pass executes, counted by the armed
	// (never-firing) hook itself.
	faultinject.Arm(faultinject.SlowDenseChunk, faultinject.Spec{After: 1 << 30})
	if _, err := cp.Run(x); err != nil {
		t.Fatal(err)
	}
	fullPass := faultinject.Calls(faultinject.SlowDenseChunk)
	if fullPass < 50 {
		t.Fatalf("a full pass ran only %d dense chunks; the test needs a long split step", fullPass)
	}

	const endAt = 3 // the slowed chunk that ends the context
	for _, tc := range []struct {
		name string
		ctx  func() (ctx context.Context, end func())
		want error
	}{
		{"deadline", func() (context.Context, func()) {
			c := newHandCtx()
			return c, func() { c.end(context.DeadlineExceeded) }
		}, context.DeadlineExceeded},
		{"cancel", func() (context.Context, func()) {
			return context.WithCancel(context.Background())
		}, context.Canceled},
	} {
		ctx, end := tc.ctx()
		var slowed atomic.Int64
		// 5 ms per chunk: an uninterruptible pass would take fullPass*2.5 ms.
		faultinject.Arm(faultinject.SlowDenseChunk, faultinject.Spec{After: 1, Every: 1, Delay: 5 * time.Millisecond,
			OnFire: func() {
				if slowed.Add(1) == endAt {
					end()
				}
			}})
		start := time.Now()
		_, err := cp.RunCtx(ctx, x)
		took := time.Since(start)
		end()
		calls := faultinject.Calls(faultinject.SlowDenseChunk)
		faultinject.Disarm(faultinject.SlowDenseChunk)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		// Both participants may have claimed one more chunk each before they
		// saw the context end.
		if calls < endAt || calls > endAt+2 {
			t.Errorf("%s: %d of %d dense chunks ran; want the step cut right after chunk %d", tc.name, calls, fullPass, endAt)
		}
		if took > 2*time.Second {
			t.Errorf("%s: run took %v to notice the context ending", tc.name, took)
		}
		got, err := cp.Run(x)
		if err != nil {
			t.Fatalf("%s: program unusable after a cut run: %v", tc.name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: output after a cut run differs from the clean baseline", tc.name)
		}
	}
}

// TestDenseChunkPanicIsStepNamed: a panic inside a dense chunk body — on
// the submitting goroutine or a pool helper, whichever claims the poisoned
// chunk — surfaces as an error naming the step, in both execution modes,
// and the pool and the program keep serving the next Run.
func TestDenseChunkPanicIsStepNamed(t *testing.T) {
	defer faultinject.Reset()
	defer program.SetParallelSteps(false)
	g := denseGraph(t, 33)
	inFeat, classes := poolInFeat(), 7
	x := poolInput(g, inFeat)
	for _, m := range []Model{All()[2], All()[5]} { // GAT (width-2 waves) and SageMean
		cp, err := CompileModel(m, g, inFeat, classes, poolEngine(4))
		if err != nil {
			t.Fatal(err)
		}
		out, err := cp.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		want := out.Clone()
		splitNames, _ := splitSteps(cp)
		for _, parallel := range []bool{false, true} {
			program.SetParallelSteps(parallel)
			// After: 7 lands past the first chunks, so with 4 participants
			// the poisoned chunk is as likely a helper's as the caller's.
			faultinject.Arm(faultinject.DenseChunkPanic, faultinject.Spec{After: 7})
			_, err := cp.Run(x)
			faultinject.Disarm(faultinject.DenseChunkPanic)
			if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "dense-chunk-panic") {
				t.Fatalf("%s parallel=%v: err = %v, want a step panic error carrying the injected fault", m.Name(), parallel, err)
			}
			named := false
			for _, n := range splitNames {
				named = named || strings.Contains(err.Error(), "step "+n+" ")
			}
			if !named {
				t.Errorf("%s parallel=%v: error %q names none of the split steps %v", m.Name(), parallel, err, splitNames)
			}
			got, err := cp.Run(x)
			if err != nil {
				t.Fatalf("%s parallel=%v: next Run failed: %v", m.Name(), parallel, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s parallel=%v: output after a panicked run differs from the baseline", m.Name(), parallel)
			}
		}
	}
}

// TestConcurrentProgramsShareThePool: the daemon's shape — a GCN and a GAT
// program, each with its own runner goroutine, running at once over the one
// pool, with wave-parallel steps on so GAT's width-2 waves submit nested
// jobs (a wave job whose steps split their own GEMMs and kernels). More
// submitters than helpers must still finish, correctly. Run under -race.
func TestConcurrentProgramsShareThePool(t *testing.T) {
	g := denseGraph(t, 34)
	inFeat, classes := poolInFeat(), 7
	x := poolInput(g, inFeat)
	program.SetParallelSteps(true)
	defer program.SetParallelSteps(false)

	type runner struct {
		name string
		cp   *program.CompiledProgram
		want *tensor.Dense
	}
	var runners []runner
	for _, m := range []Model{All()[0], All()[2], All()[5]} { // GCN, GAT, SageMean
		cp, err := CompileModel(m, g, inFeat, classes, poolEngine(4))
		if err != nil {
			t.Fatal(err)
		}
		out, err := cp.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		runners = append(runners, runner{m.Name(), cp, out.Clone()})
	}
	if w := runners[1].cp.Stats().MaxWaveWidth; w < 2 {
		t.Fatalf("GAT compiled with wave width %d; the test needs nested submission", w)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for _, r := range runners {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 15; i++ {
					got, err := r.cp.Run(x)
					if err != nil {
						t.Errorf("%s run %d: %v", r.name, i, err)
						return
					}
					if !got.Equal(r.want) {
						t.Errorf("%s run %d: output differs from its solo baseline", r.name, i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("concurrent programs did not finish: the pool deadlocked")
	}
}
