package models

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gpu"
	"repro/internal/program"
	"repro/internal/tensor"
)

// TestCompiledMatchesForward is the golden equivalence suite: for every
// model, the compiled program must reproduce the interpreter's ForwardCtx
// within 1e-4, under the tuned uGrapher engine on the host backends (reference and parallel).
func TestCompiledMatchesForward(t *testing.T) {
	g := smallGraph(t, 21)
	const inFeat, classes = 12, 5
	x := tensor.NewDense(g.NumVertices(), inFeat)
	x.FillRandom(rand.New(rand.NewSource(77)), 1)

	backends := []core.ExecBackend{
		core.ReferenceBackend(),
		core.NewParallelBackend(2),
		core.NewShardedParallelBackend(2, 4),
	}
	engines := []struct {
		name string
		mk   func(b core.ExecBackend) Engine
	}{
		{"tuned", func(b core.ExecBackend) Engine {
			eng := NewTunedEngine(gpu.V100())
			eng.Compute = b
			return eng
		}},
	}

	for _, m := range All() {
		for _, ec := range engines {
			for _, b := range backends {
				eng := ec.mk(b)
				want, err := ForwardCtx(context.Background(), m, g, x, classes, eng)
				if err != nil {
					t.Fatalf("%s/%s/%s: ForwardCtx: %v", m.Name(), ec.name, b.Name(), err)
				}
				cp, err := CompileModel(m, g, inFeat, classes, eng)
				if err != nil {
					t.Fatalf("%s/%s/%s: CompileModel: %v", m.Name(), ec.name, b.Name(), err)
				}
				got, err := cp.Run(x)
				if err != nil {
					t.Fatalf("%s/%s/%s: Run: %v", m.Name(), ec.name, b.Name(), err)
				}
				if got.Rows != g.NumVertices() || got.Cols != classes {
					t.Fatalf("%s/%s/%s: output %dx%d, want %dx%d",
						m.Name(), ec.name, b.Name(), got.Rows, got.Cols, g.NumVertices(), classes)
				}
				if !got.AllClose(want, 1e-4, 1e-4) {
					t.Errorf("%s/%s/%s: compiled != interpreted (maxdiff %v)",
						m.Name(), ec.name, b.Name(), got.MaxDiff(want))
				}
			}
		}
	}
}

// TestCompiledMatchesForwardUnfused covers the decomposed path: an engine
// that does not fuse must still match, with the materialise+scatter pairs
// left as separate kernels.
func TestCompiledMatchesForwardUnfused(t *testing.T) {
	g := smallGraph(t, 22)
	const inFeat, classes = 8, 4
	x := tensor.NewDense(g.NumVertices(), inFeat)
	x.FillRandom(rand.New(rand.NewSource(5)), 1)

	for _, fuses := range []bool{true, false} {
		eng := &FixedEngine{
			EngineName:   "fixed-test",
			Dev:          gpu.V100(),
			AggrSchedule: core.DefaultSchedule,
			MsgCSchedule: core.DefaultSchedule,
			Fuses:        fuses,
			Compute:      core.ReferenceBackend(),
		}
		for _, m := range All() {
			want, err := ForwardCtx(context.Background(), m, g, x, classes, eng)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := CompileModel(m, g, inFeat, classes, eng)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cp.Run(x)
			if err != nil {
				t.Fatal(err)
			}
			if !got.AllClose(want, 1e-4, 1e-4) {
				t.Errorf("%s fuses=%v: compiled != interpreted (maxdiff %v)",
					m.Name(), fuses, got.MaxDiff(want))
			}
			if fuses && cp.Stats().FusedPairs == 0 {
				t.Errorf("%s: fusing engine produced no fused pairs", m.Name())
			}
			if !fuses && cp.Stats().FusedPairs != 0 {
				t.Errorf("%s: non-fusing engine fused %d pairs", m.Name(), cp.Stats().FusedPairs)
			}
		}
	}
}

// TestGCNFusionReducesGraphOps pins the acceptance criterion: the fusion
// pass provably shrinks GCN's graph-operator count. GCN records one
// materialise+scatter pair per layer (4 graph nodes), which fuse to 2
// kernels.
func TestGCNFusionReducesGraphOps(t *testing.T) {
	g := smallGraph(t, 23)
	p, err := Record(NewGCN(), g, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.GraphOpCount(); got != 4 {
		t.Fatalf("recorded graph ops = %d, want 4", got)
	}
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	cp, err := CompileModel(NewGCN(), g, 16, 7, eng)
	if err != nil {
		t.Fatal(err)
	}
	st := cp.Stats()
	if st.FusedPairs != 2 {
		t.Errorf("fused pairs = %d, want 2", st.FusedPairs)
	}
	if st.GraphKernels != 2 {
		t.Errorf("graph kernels = %d, want 2", st.GraphKernels)
	}
	if st.GraphKernels >= p.GraphOpCount() {
		t.Errorf("fusion did not reduce graph ops: %d -> %d", p.GraphOpCount(), st.GraphKernels)
	}
}

// zeroAllocProgram is one compiled cell of the zero-alloc matrix and the
// input it runs on.
type zeroAllocProgram struct {
	label string
	cp    *program.CompiledProgram
	x     *tensor.Dense
}

// zeroAllocCache holds the matrix's programs once compiled: the plain and the
// traced zero-alloc tests measure the same programs, so the package compiles
// them once between the two, and the second walk drops them. A build that
// fails leaves it nil.
var zeroAllocCache struct {
	progs []zeroAllocProgram
	walks int
}

// zeroAllocConfigs walks the matrix the zero-alloc contract is claimed over:
// workers {1, 2, 4} x shards {1, 4} x all six models, plus the unsharded
// backend behind a resilient ladder — the program the serving daemon runs —
// each program run with parallel steps off and on. Parallel steps is a
// run-time switch that only a program with a wave wider than one step reads,
// so one compile serves both, and a pure chain runs once.
func zeroAllocConfigs(t *testing.T, measure func(label string, cp *program.CompiledProgram, x *tensor.Dense)) {
	c := &zeroAllocCache
	if c.progs == nil {
		c.progs = compileZeroAllocMatrix(t)
	}
	defer program.SetParallelSteps(false)
	for _, parallel := range []bool{false, true} {
		program.SetParallelSteps(parallel)
		for _, p := range c.progs {
			if !parallel || p.cp.Stats().MaxWaveWidth > 1 {
				measure(fmt.Sprintf("%s parallel=%v", p.label, parallel), p.cp, p.x)
			}
		}
	}
	if c.walks++; c.walks == 2 {
		c.progs = nil
	}
}

// compileZeroAllocMatrix compiles zeroAllocConfigs' programs. The
// multi-worker configurations compile on a graph large enough that the graph
// kernels leave the calling goroutine (edges x features >= smallWork) and the
// widest GEMM of every model crosses the dense inline threshold; workers=1
// never leaves the caller on any graph, so it keeps the small one. For each
// compiled program it checks that the parallel machinery engaged exactly when
// it should.
func compileZeroAllocMatrix(t *testing.T) []zeroAllocProgram {
	const classes = 7
	var progs []zeroAllocProgram
	for _, workers := range []int{1, 2, 4} {
		g, inFeat := smallGraph(t, 24), 16
		if workers > 1 {
			if raceBuild {
				// Minutes of instrumented GEMM for an allocation count;
				// the multi-worker paths run race-enabled in pool_test.go.
				continue
			}
			g, inFeat = denseGraph(t, 24), poolInFeat()
		}
		x := tensor.NewDense(g.NumVertices(), inFeat)
		x.FillRandom(rand.New(rand.NewSource(3)), 1)
		for _, cell := range []struct {
			shards int
			ladder bool
		}{{1, false}, {4, false}, {1, true}} {
			shards := cell.shards
			var compute core.ExecBackend = core.NewShardedParallelBackend(workers, shards)
			if cell.ladder {
				compute = core.NewResilientBackend(compute)
			}
			eng := &FixedEngine{
				EngineName:   "fixed-test",
				Dev:          gpu.V100(),
				AggrSchedule: core.DefaultSchedule,
				MsgCSchedule: core.DefaultSchedule,
				Fuses:        true,
				Compute:      compute,
			}
			for _, m := range All() {
				cp, err := CompileModel(m, g, inFeat, classes, eng)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s workers=%d shards=%d ladder=%v", m.Name(), workers, shards, cell.ladder)
				// GAT's edge-softmax chains run as row-resident regions on
				// every parallel kernel, flat or sharded, the ladder's
				// primary included.
				if want := map[bool]int{true: 2, false: 0}[m.Name() == "GAT"]; cp.Stats().RowRegions != want {
					t.Fatalf("%s: %d row-resident regions, want %d", label, cp.Stats().RowRegions, want)
				}
				dense, kernels := splitSteps(cp)
				if (workers > 1) != (len(dense) > 0) || (workers > 1) != (kernels > 0) {
					t.Fatalf("%s: %d dense steps and %d graph kernels run on the pool; want some of each exactly when workers > 1",
						label, len(dense), kernels)
				}
				progs = append(progs, zeroAllocProgram{label: label, cp: cp, x: x})
			}
		}
	}
	return progs
}

// TestCompiledRunZeroAllocs pins the steady-state guarantee: after compile,
// Run allocates nothing — intermediates live in the arena, kernels reuse
// their scratch, and every fan-out (kernel chunks, shards, waves,
// dense row ranges) is a pre-bound job on the process-wide worker pool.
// AllocsPerRun counts process-wide mallocs, so allocations on pool helpers
// would show up too.
func TestCompiledRunZeroAllocs(t *testing.T) {
	zeroAllocConfigs(t, func(label string, cp *program.CompiledProgram, x *tensor.Dense) {
		if _, err := cp.Run(x); err != nil { // warm up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := cp.Run(x); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Run allocates %.1f objects/run, want 0", label, allocs)
		}
	})
}

// TestCompiledRunConcurrentGuard pins the documented concurrency contract:
// a CompiledProgram's intermediates share one arena, so two goroutines must
// never run it at once — and when they try, the loser fails loudly with
// program.ErrConcurrentRun instead of silently corrupting the arena. A
// SlowChunk injection holds one run inside its first graph kernel long
// enough that the second call deterministically overlaps; run under -race
// this also proves the guard itself is race-free.
func TestCompiledRunConcurrentGuard(t *testing.T) {
	defer faultinject.Reset()
	g := smallGraph(t, 27)
	const inFeat, classes = 8, 3
	eng := &FixedEngine{
		EngineName:   "fixed-test",
		Dev:          gpu.V100(),
		AggrSchedule: core.DefaultSchedule,
		MsgCSchedule: core.DefaultSchedule,
		Fuses:        true,
		Compute:      core.NewParallelBackend(1),
	}
	cp, err := CompileModel(NewGCN(), g, inFeat, classes, eng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewDense(g.NumVertices(), inFeat)
	x.FillRandom(rand.New(rand.NewSource(9)), 1)
	want, err := cp.Run(x) // warm, fault-free baseline
	if err != nil {
		t.Fatal(err)
	}
	snap := want.Clone()

	// Whichever run reaches a graph kernel first sleeps 150ms (fire-once);
	// the other call lands inside that window and must be rejected.
	faultinject.Arm(faultinject.SlowChunk, faultinject.Spec{After: 1, Limit: 1, Delay: 150 * time.Millisecond})
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		close(started)
		_, err := cp.Run(x)
		errc <- err
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	_, err2 := cp.Run(x)
	err1 := <-errc

	rejected := 0
	for _, e := range []error{err1, err2} {
		switch {
		case e == nil:
		case errors.Is(e, program.ErrConcurrentRun):
			rejected++
		default:
			t.Fatalf("unexpected error from overlapping Run: %v", e)
		}
	}
	if rejected != 1 {
		t.Fatalf("overlapping runs rejected = %d, want exactly 1 ErrConcurrentRun (err1=%v, err2=%v)", rejected, err1, err2)
	}

	// The program stays usable after a rejected call, and the guard released.
	faultinject.Reset()
	out, err := cp.Run(x)
	if err != nil {
		t.Fatalf("Run after rejected overlap: %v", err)
	}
	if !out.Equal(snap) {
		t.Error("post-overlap run differs from baseline")
	}
}

// TestCompiledRunRepeatStability: rerunning a compiled program with the same
// input is bit-identical — buffer reuse must not leak state across runs.
func TestCompiledRunRepeatStability(t *testing.T) {
	g := smallGraph(t, 25)
	const inFeat, classes = 10, 3
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	x := tensor.NewDense(g.NumVertices(), inFeat)
	x.FillRandom(rand.New(rand.NewSource(11)), 1)

	for _, m := range All() {
		cp, err := CompileModel(m, g, inFeat, classes, eng)
		if err != nil {
			t.Fatal(err)
		}
		first, err := cp.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		snap := first.Clone()
		for rep := 0; rep < 3; rep++ {
			out, err := cp.Run(x)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Equal(snap) {
				t.Fatalf("%s: rep %d differs from first run", m.Name(), rep)
			}
		}
	}
}
