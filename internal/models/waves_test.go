package models

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/program"
	"repro/internal/tensor"
)

// TestWaveParallelMatchesReference is the wave-execution equivalence suite:
// for every model, wave-parallel execution must match both the sequential
// compiled run and the interpreter's reference ForwardCtx within 1e-4, across
// the tuned engine and the reference/parallel/sharded
// backends at 1 and 4 shards.
func TestWaveParallelMatchesReference(t *testing.T) {
	g := smallGraph(t, 31)
	const inFeat, classes = 12, 5
	x := tensor.NewDense(g.NumVertices(), inFeat)
	x.FillRandom(rand.New(rand.NewSource(41)), 1)

	backends := []core.ExecBackend{
		core.ReferenceBackend(),
		core.NewParallelBackend(2),
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

	defer program.SetParallelSteps(false)
	for _, m := range All() {
		for _, ec := range engines {
			for _, b := range backends {
				eng := ec.mk(b)
				ref, err := ForwardCtx(context.Background(), m, g, x, classes, eng)
				if err != nil {
					t.Fatalf("%s/%s/%s: ForwardCtx: %v", m.Name(), ec.name, b.Name(), err)
				}
				cp, err := CompileModel(m, g, inFeat, classes, eng)
				if err != nil {
					t.Fatalf("%s/%s/%s: CompileModel: %v", m.Name(), ec.name, b.Name(), err)
				}
				program.SetParallelSteps(false)
				seq, err := cp.Run(x)
				if err != nil {
					t.Fatalf("%s/%s/%s: sequential Run: %v", m.Name(), ec.name, b.Name(), err)
				}
				seqC := seq.Clone()
				program.SetParallelSteps(true)
				par, err := cp.Run(x)
				if err != nil {
					t.Fatalf("%s/%s/%s: wave-parallel Run: %v", m.Name(), ec.name, b.Name(), err)
				}
				if !par.AllClose(seqC, 1e-4, 1e-4) {
					t.Errorf("%s/%s/%s: wave-parallel != sequential (maxdiff %v)",
						m.Name(), ec.name, b.Name(), par.MaxDiff(seqC))
				}
				if !par.AllClose(ref, 1e-4, 1e-4) {
					t.Errorf("%s/%s/%s: wave-parallel != reference (maxdiff %v)",
						m.Name(), ec.name, b.Name(), par.MaxDiff(ref))
				}
			}
		}
	}
}

// TestGATWaveWidth pins the headline win: GAT's per-layer attention chains
// (attn_l and attn_r both read the projected features independently) must
// be proved independent, giving a wave schedule wider than one step.
func TestGATWaveWidth(t *testing.T) {
	g := smallGraph(t, 32)
	eng := &FixedEngine{
		EngineName:   "fixed-test",
		Dev:          gpu.V100(),
		AggrSchedule: core.DefaultSchedule,
		MsgCSchedule: core.DefaultSchedule,
		Fuses:        true,
		Compute:      core.ReferenceBackend(),
	}
	cp, err := CompileModel(NewGAT(), g, 12, 5, eng)
	if err != nil {
		t.Fatal(err)
	}
	s := cp.Stats()
	if s.MaxWaveWidth < 2 {
		t.Fatalf("GAT MaxWaveWidth = %d, want >= 2", s.MaxWaveWidth)
	}
	if s.Waves <= 0 || s.Waves >= s.Steps {
		t.Fatalf("GAT Waves = %d with %d steps: a wider-than-one schedule must have fewer waves than steps", s.Waves, s.Steps)
	}
}
