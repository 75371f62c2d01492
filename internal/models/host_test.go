package models

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gpu"
	"repro/internal/program"
	"repro/internal/tensor"
)

// The served program: what internal/serve compiles — NewHostEngine on a
// resilient ladder over the parallel backend — against the programs it
// replaced.

// quietLadder is the daemon's backend: a resilient ladder over the parallel
// backend, its fallback log silenced.
func quietLadder(workers, shards int) *core.ResilientBackend {
	rb := core.NewResilientBackend(core.NewShardedParallelBackend(workers, shards))
	rb.SetLogger(nil)
	return rb
}

// TestHostProgramEqualsPlainAndTuned: for all six models, the one program the
// daemon holds — compiled with fixed host schedules on a resilient ladder —
// produces the bits of the plain parallel program and of the
// program a simulator-tuned engine compiles (what the daemon served before),
// and keeps every fused epilogue in the chunk that produced the rows.
func TestHostProgramEqualsPlainAndTuned(t *testing.T) {
	g := denseGraph(t, 43)
	const inFeat, classes = 64, 7
	x := poolInput(g, inFeat)
	for _, m := range All() {
		compile := func(eng Engine) *program.CompiledProgram {
			cp, err := CompileModel(m, g, inFeat, classes, eng)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name(), eng.Name(), err)
			}
			return cp
		}
		run := func(cp *program.CompiledProgram) *tensor.Dense {
			out, err := cp.Run(x)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			return out.Clone()
		}
		plain := compile(NewHostEngine(core.NewParallelBackend(2)))
		tuned := NewTunedEngine(gpu.V100())
		tuned.Compute = core.NewParallelBackend(2)
		served := compile(NewHostEngine(quietLadder(2, 1)))

		want := run(plain)
		if got := run(served); !got.Equal(want) {
			t.Errorf("%s: program behind the ladder differs from the plain parallel one (maxdiff %g)", m.Name(), got.MaxDiff(want))
		}
		if got := run(compile(tuned)); !got.Equal(want) {
			t.Errorf("%s: host-engine program differs from the tuned-engine one (maxdiff %g)", m.Name(), got.MaxDiff(want))
		}
		pin, _ := epilogueModes(plain)
		if in, after := epilogueModes(served); in != pin || after != 0 {
			t.Errorf("%s: behind the ladder %d epilogues in-chunk and %d after; the plain program has %d in-chunk", m.Name(), in, after, pin)
		}
		if m.Name() == "GCN" && pin == 0 {
			t.Error("GCN fused no epilogue: region fusion is off in the host engine")
		}
	}
}

// TestHostProgramLadder: with every primary kernel failing, the served
// program answers ≡ the reference interpreter, each region's epilogue applied
// once after its kernel's rerun.
func TestHostProgramLadder(t *testing.T) {
	defer faultinject.Reset()
	g := smallGraph(t, 47)
	const inFeat, classes = 16, 5
	x := tensor.NewDense(g.NumVertices(), inFeat)
	x.FillRandom(rand.New(rand.NewSource(11)), 1)
	for _, m := range All() {
		want, err := ForwardCtx(context.Background(), m, g, x, classes, NewHostEngine(core.ReferenceBackend()))
		if err != nil {
			t.Fatal(err)
		}
		rb := quietLadder(2, 1)
		served, err := CompileModel(m, g, inFeat, classes, NewHostEngine(rb))
		if err != nil {
			t.Fatal(err)
		}

		// KernelPanicLoad fires in the parallel backend's chunks only, so the
		// reference rung survives every=1.
		faultinject.Arm(faultinject.KernelPanicLoad, faultinject.Spec{After: 1, Every: 1})
		got, err := served.Run(x)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if !got.AllClose(want, 1e-4, 1e-4) {
			t.Errorf("%s: degraded output differs from the reference interpreter (maxdiff %g)", m.Name(), got.MaxDiff(want))
		}
		if n, k := rb.Fallbacks(), int64(served.Stats().GraphKernels); n != k {
			t.Errorf("%s: %d fallbacks for %d graph kernels", m.Name(), n, k)
		}
		faultinject.Reset()
	}
}

// TestHostProgramShardedBehindLadder: a program compiled at shards=4, bare
// or behind the ladder, is the shards=1 program to the bit — under the host
// engine's own schedules and with each of the four strategies as the
// aggregation schedule, sequential and wave-parallel.
func TestHostProgramShardedBehindLadder(t *testing.T) {
	defer program.SetParallelSteps(false)
	g := smallGraph(t, 53)
	const inFeat, classes = 16, 5
	x := tensor.NewDense(g.NumVertices(), inFeat)
	x.FillRandom(rand.New(rand.NewSource(13)), 1)
	for _, m := range All() {
		for si := -1; si < len(core.Strategies); si++ {
			label := m.Name() + "/host"
			compile := func(b core.ExecBackend) *program.CompiledProgram {
				eng := NewHostEngine(b)
				if si >= 0 {
					eng.AggrSchedule = core.Schedule{Strategy: core.Strategies[si], Group: 1, Tile: 1}
					label = m.Name() + "/" + eng.AggrSchedule.String()
				}
				cp, err := CompileModel(m, g, inFeat, classes, eng)
				if err != nil {
					t.Fatal(err)
				}
				return cp
			}
			flat, served, plain := compile(core.NewParallelBackend(2)), compile(quietLadder(2, 4)), compile(core.NewShardedParallelBackend(2, 4))
			out, err := flat.Run(x)
			if err != nil {
				t.Fatal(err)
			}
			want := out.Clone()
			for _, parallel := range []bool{false, true} {
				program.SetParallelSteps(parallel)
				for name, cp := range map[string]*program.CompiledProgram{"plain": plain, "behind the ladder": served} {
					got, err := cp.Run(x)
					if err != nil {
						t.Fatal(err)
					}
					if i := got.BitDiff(want); i >= 0 {
						t.Errorf("%s parallel-steps=%v: sharded program (%s) differs from shards=1 at element %d: %v vs %v",
							label, parallel, name, i, got.Data[i], want.Data[i])
					}
				}
			}
			program.SetParallelSteps(false)
		}
	}
}
