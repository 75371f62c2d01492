package program

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// wideProgram records input -> {GEMM w1, GEMM w2} -> concat -> relu: the two
// GEMMs read only the input, so the wave scheduler must prove them
// independent and place them in one wave.
func wideProgram(t *testing.T, cols int) (*Program, *tensor.Dense, *tensor.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	w1 := tensor.NewDense(cols, cols)
	w1.FillRandom(rng, 0.5)
	w2 := tensor.NewDense(cols, cols)
	w2.FillRandom(rng, 0.5)
	b := NewBuilder("wide", cols, 2*cols)
	in := b.Input(cols)
	wv1 := b.Const("w1", w1, VertexRows)
	wv2 := b.Const("w2", w2, VertexRows)
	h1 := b.GEMM("xw1", in, wv1, cols)
	h2 := b.GEMM("xw2", in, wv2, cols)
	cat := b.Concat("cat", h1, h2)
	out := b.Unary("relu", cat, []Unary{{Kind: UnaryReLU}})
	b.SetOutput(out)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p, w1, w2
}

// twoChainProgram records input -> GEMM -> two independent
// materialise+scatter chains -> add: with fusion on, the two fused
// aggregations share a wave, so wave execution runs two graph kernels
// concurrently.
func twoChainProgram(t *testing.T, g interface{ NumEdges() int }, cols int) *Program {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	w := tensor.NewDense(cols, cols)
	w.FillRandom(rng, 0.5)
	ew1 := tensor.NewDense(g.NumEdges(), 1)
	ew1.FillRandom(rng, 1)
	ew2 := tensor.NewDense(g.NumEdges(), 1)
	ew2.FillRandom(rng, 1)

	b := NewBuilder("twochain", cols, cols)
	in := b.Input(cols)
	wv := b.Const("w", w, VertexRows)
	h := b.GEMM("xw", in, wv, cols)
	mk := func(tag string, ewv ValueID) ValueID {
		mat := b.GraphOp("mat_"+tag, ops.OpInfo{
			EdgeOp: ops.EdgeMul, GatherOp: ops.GatherCopyRHS,
			AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.EdgeK,
		}, h, ewv, cols)
		return b.GraphOp("agg_"+tag, ops.OpInfo{
			EdgeOp: ops.CopyRHS, GatherOp: ops.GatherSum,
			AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV,
		}, NoValue, mat, cols)
	}
	a1 := mk("a", b.Const("ew1", ew1, EdgeRows))
	a2 := mk("b", b.Const("ew2", ew2, EdgeRows))
	out := b.AddScaled("add", a1, a2, 1)
	b.SetOutput(out)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWaveScheduleChain: a straight-line program schedules as a chain of
// width-1 waves covering every step exactly once.
func TestWaveScheduleChain(t *testing.T) {
	g := testGraph(t, 21, 60, 400)
	p, _, _ := toyProgram(t, g, 4, 3)
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.ReferenceBackend())
	if err != nil {
		t.Fatal(err)
	}
	s := cp.Stats()
	if s.MaxWaveWidth != 1 {
		t.Errorf("chain program MaxWaveWidth = %d, want 1", s.MaxWaveWidth)
	}
	if s.Waves != s.Steps {
		t.Errorf("chain program Waves = %d, want one per step (%d)", s.Waves, s.Steps)
	}
	assertWavePartition(t, cp)
}

// TestWaveScheduleWide: two GEMMs reading only the input are proved
// independent and share a wave.
func TestWaveScheduleWide(t *testing.T) {
	g := testGraph(t, 22, 60, 400)
	p, _, _ := wideProgram(t, 4)
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.ReferenceBackend())
	if err != nil {
		t.Fatal(err)
	}
	s := cp.Stats()
	if s.MaxWaveWidth < 2 {
		t.Fatalf("wide program MaxWaveWidth = %d, want >= 2 (waves: %v)", s.MaxWaveWidth, cp.Waves())
	}
	if s.Waves >= s.Steps {
		t.Errorf("wide program should have fewer waves (%d) than steps (%d)", s.Waves, s.Steps)
	}
	assertWavePartition(t, cp)
}

// assertWavePartition checks the schedule invariants directly: every step in
// exactly one wave, and every dependence edge crossing to a later wave.
func assertWavePartition(t *testing.T, cp *CompiledProgram) {
	t.Helper()
	waveOf := make(map[int]int)
	for w, wave := range cp.Waves() {
		for _, s := range wave {
			if prev, dup := waveOf[s]; dup {
				t.Fatalf("step %d in waves %d and %d", s, prev, w)
			}
			waveOf[s] = w
		}
	}
	if len(waveOf) != len(cp.steps) {
		t.Fatalf("waves cover %d steps, program has %d", len(waveOf), len(cp.steps))
	}
	for _, e := range cp.depEdges {
		if waveOf[e.From] >= waveOf[e.To] {
			t.Fatalf("edge %d->%d (%s) not respected: waves %d -> %d", e.From, e.To, e.Kind, waveOf[e.From], waveOf[e.To])
		}
	}
}

// TestWaveParallelMatchesSequential: wave execution computes the same
// outputs as the sequential loop and as a direct dense oracle.
func TestWaveParallelMatchesSequential(t *testing.T) {
	g := testGraph(t, 23, 60, 400)
	p, w1, w2 := wideProgram(t, 4)
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.ReferenceBackend())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	x := tensor.NewDense(g.NumVertices(), 4)
	x.FillRandom(rng, 1)

	seq, err := cp.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	seqC := seq.Clone()

	SetParallelSteps(true)
	defer SetParallelSteps(false)
	par, err := cp.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range par.Data {
		if diff := par.Data[i] - seqC.Data[i]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("parallel[%d] = %g, sequential = %g", i, par.Data[i], seqC.Data[i])
		}
	}

	h1, h2 := tensor.MatMul(x, w1), tensor.MatMul(x, w2)
	want := tensor.NewDense(g.NumVertices(), 8)
	tensor.ConcatInto(want, h1, h2)
	for i, v := range want.Data {
		if v < 0 {
			want.Data[i] = 0
		}
	}
	for i := range par.Data {
		if diff := par.Data[i] - want.Data[i]; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("parallel[%d] = %g, oracle = %g", i, par.Data[i], want.Data[i])
		}
	}
}

// TestWaveParallelGraphKernels runs two independent fused aggregations
// concurrently (one wave) and checks against the sequential result.
func TestWaveParallelGraphKernels(t *testing.T) {
	g := testGraph(t, 24, 80, 600)
	p := twoChainProgram(t, g, 4)
	for _, backend := range []core.ExecBackend{core.ReferenceBackend(), core.NewParallelBackend(2)} {
		cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, backend)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Stats().MaxWaveWidth < 2 {
			t.Fatalf("two-chain program MaxWaveWidth = %d, want >= 2 (waves: %v)", cp.Stats().MaxWaveWidth, cp.Waves())
		}
		rng := rand.New(rand.NewSource(3))
		x := tensor.NewDense(g.NumVertices(), 4)
		x.FillRandom(rng, 1)
		seq, err := cp.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		seqC := seq.Clone()
		SetParallelSteps(true)
		par, err := cp.Run(x)
		SetParallelSteps(false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range par.Data {
			if diff := par.Data[i] - seqC.Data[i]; diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("parallel[%d] = %g, sequential = %g", i, par.Data[i], seqC.Data[i])
			}
		}
	}
}

// TestWaveCorruptionFiresEachRule arms every CorruptWaveSchedule seed and
// proves the matching wave rule rejects the compilation, mirroring
// TestCorruptionFiresEachRule for the plan-corruption points.
func TestWaveCorruptionFiresEachRule(t *testing.T) {
	g := testGraph(t, 25, 60, 400)
	p, _, _ := wideProgram(t, 4)
	cases := []struct {
		seed uint64
		rule string
	}{
		{0, analysis.RuleStepDeps},
		{1, analysis.RuleWaveLegal},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			faultinject.Arm(faultinject.CorruptWaveSchedule, faultinject.Spec{Every: 1, Seed: tc.seed})
			_, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.ReferenceBackend())
			if err == nil {
				t.Fatalf("corrupted compile succeeded; %s rule never fired", tc.rule)
			}
			var ve *analysis.VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("want *analysis.VerifyError, got %T: %v", err, err)
			}
			if !ve.HasRule(tc.rule) {
				t.Fatalf("seed %d: want rule %s, got: %v", tc.seed, tc.rule, ve.Diags)
			}
			if faultinject.Fires(faultinject.CorruptWaveSchedule) == 0 {
				t.Fatal("corrupt-wave-schedule never fired")
			}
		})
	}
}

// TestWaveParallelCancellation: a pre-cancelled context aborts a
// wave-parallel run between waves.
func TestWaveParallelCancellation(t *testing.T) {
	g := testGraph(t, 26, 60, 400)
	p, _, _ := wideProgram(t, 4)
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.ReferenceBackend())
	if err != nil {
		t.Fatal(err)
	}
	SetParallelSteps(true)
	defer SetParallelSteps(false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := tensor.NewDense(g.NumVertices(), 4)
	if _, err := cp.RunCtx(ctx, x); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The program stays usable after a cancelled run.
	if _, err := cp.Run(x); err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
}

// TestWaveParallelPanicIsolation: a panic inside a dispatched step is
// recovered on the worker and surfaced as the run's error instead of
// killing the process (or deadlocking the wave barrier).
func TestWaveParallelPanicIsolation(t *testing.T) {
	g := testGraph(t, 27, 60, 400)
	p, _, _ := wideProgram(t, 4)
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.ReferenceBackend())
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage one of the same-wave GEMM steps: revalidate looks at tensors,
	// so a step without a body passes it and panics when it runs.
	broke := false
	for i := range cp.steps {
		if cp.steps[i].op == OpGEMM {
			cp.steps[i].body = nil
			broke = true
			break
		}
	}
	if !broke {
		t.Fatal("no GEMM step to sabotage")
	}
	SetParallelSteps(true)
	defer SetParallelSteps(false)
	x := tensor.NewDense(g.NumVertices(), 4)
	_, err = cp.Run(x)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("want recovered panic error, got %v", err)
	}
}
