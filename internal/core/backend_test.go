package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Backend-abstraction tests: registry resolution, lower-time validation,
// counters, and — most importantly — parallel-backend equivalence with the
// reference interpreter for every strategy, with a worker pool large
// enough that `go test -race` actually exercises the concurrency even on
// small CI machines.

func TestBackendRegistry(t *testing.T) {
	for _, name := range BackendNames {
		b, err := Backend(name)
		if err != nil {
			t.Fatalf("Backend(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("Backend(%q).Name() = %q", name, b.Name())
		}
	}
	_, err := Backend("cuda")
	if err == nil {
		t.Fatal("unknown backend should fail")
	}
	for _, name := range BackendNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid backend %q", err, name)
		}
	}
}

// allBackends returns one instance of each backend, with the parallel one
// forced to 4 workers so races are reachable under -race.
func allBackends() []ExecBackend {
	rb := NewResilientBackend(NewParallelBackend(4))
	rb.SetLogger(nil)
	return []ExecBackend{ReferenceBackend(), NewParallelBackend(4), rb}
}

// TestParallelMatchesReferencePerStrategy is the per-strategy equivalence
// gate: for every strategy and every operator family in the exec tests'
// table, the 4-worker parallel backend reproduces the reference output.
func TestParallelMatchesReferencePerStrategy(t *testing.T) {
	g := testGraph(t, 300, 4000, 11)
	par := NewParallelBackend(4)
	for _, tc := range testOps {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			feat := 19
			ref := makeOperands(g, tc.op, feat, tc.widthOneB, 5)
			if err := Reference(g, tc.op, ref); err != nil {
				t.Fatal(err)
			}
			for _, strat := range Strategies {
				got := makeOperands(g, tc.op, feat, tc.widthOneB, 5)
				p := MustCompile(tc.op, Schedule{Strategy: strat, Group: 1, Tile: 1})
				k, err := par.Lower(p, g, got)
				if err != nil {
					t.Fatalf("%s: %v", strat, err)
				}
				if err := k.Run(); err != nil {
					t.Fatalf("%s: %v", strat, err)
				}
				if !got.C.T.AllClose(ref.C.T, 1e-4, 1e-4) {
					t.Errorf("%s: parallel output differs (maxdiff %v)",
						strat, got.C.T.MaxDiff(ref.C.T))
				}
			}
		})
	}
}

// TestParallelRepeatedRuns: a lowered kernel is reusable — repeated Run
// calls are valid and idempotent for the same inputs.
func TestParallelRepeatedRuns(t *testing.T) {
	g := testGraph(t, 200, 3000, 3)
	o := makeOperands(g, ops.AggrMean, 8, false, 9)
	p := MustCompile(ops.AggrMean, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1})
	k, err := NewParallelBackend(4).Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	first := o.C.T.Clone()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !o.C.T.Equal(first) {
		t.Error("second Run produced different output")
	}
	if c := k.Counters(); c.Workers != 4 {
		t.Errorf("counters = %+v, want Workers=4", c)
	}
}

// TestLoweringValidatesOnce: bad operands fail at Lower, not Run, for
// every backend.
func TestLoweringValidatesOnce(t *testing.T) {
	g := testGraph(t, 20, 60, 4)
	p := MustCompile(ops.AggrSum, DefaultSchedule)
	bad := makeOperands(g, ops.AggrSum, 4, false, 1)
	bad.A = tensor.NullTensor
	for _, b := range allBackends() {
		if _, err := b.Lower(p, g, bad); err == nil {
			t.Errorf("%s: Lower accepted invalid operands", b.Name())
		}
		good := makeOperands(g, ops.AggrSum, 4, false, 1)
		k, err := b.Lower(p, g, good)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if k.Plan() != p {
			t.Errorf("%s: kernel lost its plan", b.Name())
		}
		if err := k.Run(); err != nil {
			t.Errorf("%s: Run: %v", b.Name(), err)
		}
	}
}

// TestParallelEmptyAndTinyGraphs: degenerate shapes take the sequential
// cutoff and empty graphs don't panic.
func TestParallelEmptyAndTinyGraphs(t *testing.T) {
	par := NewParallelBackend(4)
	empty, err := graph.FromCOO(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := Operands{
		A: tensor.Src(tensor.NewDense(0, 4)),
		B: tensor.NullTensor,
		C: tensor.Dst(tensor.NewDense(0, 4)),
	}
	for _, strat := range Strategies {
		p := MustCompile(ops.AggrSum, Schedule{Strategy: strat, Group: 1, Tile: 1})
		if err := p.ExecuteOn(par, empty, o); err != nil {
			t.Fatalf("%s empty: %v", strat, err)
		}
	}

	tiny, err := graph.FromCOO(2, []int32{0}, []int32{1})
	if err != nil {
		t.Fatal(err)
	}
	to := Operands{
		A: tensor.Src(tensor.FromSlice(2, 1, []float32{7, 0})),
		B: tensor.NullTensor,
		C: tensor.Dst(tensor.NewDense(2, 1)),
	}
	p := MustCompile(ops.AggrSum, Schedule{Strategy: WarpEdge, Group: 1, Tile: 1})
	if err := p.ExecuteOn(par, tiny, to); err != nil {
		t.Fatal(err)
	}
	if to.C.T.At(1, 0) != 7 {
		t.Errorf("tiny aggregation = %v, want 7", to.C.T.At(1, 0))
	}
}
