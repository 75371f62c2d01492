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
	"repro/internal/tensor"
)

// TestRowReadsOfAttention pins the derivation on the program with every case
// in it: the GEMMs carry their input; the row-resident head expands z, which
// it reads as Src_V, and both expands and carries the input, which its
// interior's u_add_v reads at each edge's source and destination; the
// constants and the interior values need nothing.
func TestRowReadsOfAttention(t *testing.T) {
	g := testGraph(t, 71, 60, 400)
	p := attentionProgram(t, g.NumEdges(), 8, 16, attention{})
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.NewParallelBackend(2))
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := cp.RowsCapable(); !ok {
		t.Fatalf("not rows-capable: %s", why)
	}
	in := cp.prog.Input
	for i := range cp.steps {
		st := &cp.steps[i]
		switch {
		case st.op == OpGEMM:
			if len(st.rowReads) != 1 || st.rowReads[0] != (rowRead{v: in}) {
				t.Errorf("%s reads %+v, want the input carried", st.name, st.rowReads)
			}
		case st.kern != nil:
			var z ValueID = NoValue
			for j := range cp.steps {
				if cp.steps[j].name == "xw" {
					z = cp.steps[j].vout
				}
			}
			want := map[rowRead]int{{v: z, expand: true}: 1, {v: in, expand: true}: 1, {v: in}: 1}
			for _, r := range st.rowReads {
				want[r]--
			}
			for r, n := range want {
				if n != 0 {
					t.Errorf("%s: read %+v off by %d (reads %+v)", st.name, r, -n, st.rowReads)
				}
			}
		}
	}
}

// TestRowClosureCorruptionFiresExactlyItsRule: both seeds of the row-closure
// corruption point make Compile fail with diagnostics of that one rule — on
// the backend that runs row sets and, because the corruption presents the step
// as running them, on one whose kernels decline too.
func TestRowClosureCorruptionFiresExactlyItsRule(t *testing.T) {
	g := testGraph(t, 72, 60, 400)
	p := attentionProgram(t, g.NumEdges(), 8, 16, attention{})
	for _, tc := range []struct {
		name    string
		seed    uint64
		backend core.ExecBackend
	}{
		{"src-v carried, parallel", 0, core.NewParallelBackend(2)},
		{"src-v carried, reference", 0, core.ReferenceBackend()},
		{"interior operand dropped", 1, core.NewParallelBackend(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			faultinject.Arm(faultinject.CorruptRowClosure, faultinject.Spec{Every: 1, Seed: tc.seed})
			_, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, tc.backend)
			var ve *analysis.VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("want *analysis.VerifyError, got %v", err)
			}
			for _, d := range ve.Diags {
				if d.Rule != analysis.RuleRowClosure {
					t.Errorf("seed %d also tripped %s", tc.seed, d)
				}
			}
			if faultinject.Fires(faultinject.CorruptRowClosure) == 0 {
				t.Fatal("the corruption point never fired")
			}
		})
	}
	// Disarmed, the same program verifies, the row-closure rule among the rules.
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.NewParallelBackend(2))
	if err != nil {
		t.Fatal(err)
	}
	rep := cp.Verify()
	if !rep.OK() {
		t.Fatalf("clean compile reports %v", rep.Diags)
	}
	found := false
	for _, r := range rep.RulesChecked {
		found = found || r == analysis.RuleRowClosure
	}
	if !found {
		t.Errorf("Verify checked %v, row-closure not among them", rep.RulesChecked)
	}
}

// TestStagedPrologueDeclinesRows: a region that stages an operand chain fills
// its whole staging buffer before the kernel runs, so its kernel has no row
// form and the program says which step that is — and still answers RunRows
// with the right rows, by the full pass.
func TestStagedPrologueDeclinesRows(t *testing.T) {
	g := testGraph(t, 73, 24, 80) // small enough that the cost model stages the prologue
	p := pairProgram(t, g.NumEdges(), 4, true)
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.NewParallelBackend(1))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Stats().StagingFloats == 0 {
		t.Fatal("the prologue was not staged; the fixture no longer exercises the case")
	}
	ok, why := cp.RowsCapable()
	if ok || !strings.Contains(why, "step a:") {
		t.Fatalf("rows-capable=%v (%q), want the staged region's step named", ok, why)
	}
	x := tensor.NewDense(g.NumVertices(), 4)
	x.FillRandom(rand.New(rand.NewSource(1)), 1)
	out, err := cp.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	want := out.Clone()
	got, info, err := cp.RunRows(context.Background(), x, []int32{3, 17})
	if err != nil || info.Rows {
		t.Fatalf("answered %+v, %v; want the full pass", info, err)
	}
	if d := got.BitDiff(want); d >= 0 {
		t.Errorf("full-pass answer differs from Run at element %d", d)
	}
}
