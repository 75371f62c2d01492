package models

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/tensor"
	"repro/internal/vec/vectest"
)

// regionEngine builds a fusing FixedEngine, pair-only or region-growing.
func regionEngine(pairOnly bool) *FixedEngine {
	return &FixedEngine{
		EngineName:     "region-test",
		Dev:            gpu.V100(),
		AggrSchedule:   core.DefaultSchedule,
		MsgCSchedule:   core.DefaultSchedule,
		Fuses:          true,
		PairFusionOnly: pairOnly,
		Compute:        core.ReferenceBackend(),
	}
}

// TestRegionFusionReducesSteps pins the tentpole acceptance criterion: on
// GCN and GAT, region growth launches strictly fewer kernels than pair-only
// fusion — the per-layer activation epilogues fold into the aggregation
// kernels — while the numeric output stays identical, and so does the
// graph-kernel count outside GAT's row-resident regions, which take in its
// edge-side graph steps too.
func TestRegionFusionReducesSteps(t *testing.T) {
	g := smallGraph(t, 31)
	const inFeat, classes = 16, 7
	x := tensor.NewDense(g.NumVertices(), inFeat)
	x.FillRandom(rand.New(rand.NewSource(19)), 1)

	for _, m := range []Model{NewGCN(), NewGAT()} {
		pair, err := CompileModel(m, g, inFeat, classes, regionEngine(true))
		if err != nil {
			t.Fatalf("%s pair-only: %v", m.Name(), err)
		}
		region, err := CompileModel(m, g, inFeat, classes, regionEngine(false))
		if err != nil {
			t.Fatalf("%s regions: %v", m.Name(), err)
		}
		ps, rs := pair.Stats(), region.Stats()
		if ps.FusedRegions != 0 {
			t.Errorf("%s: pair-only engine grew %d regions", m.Name(), ps.FusedRegions)
		}
		if rs.FusedRegions == 0 {
			t.Errorf("%s: region engine grew no regions", m.Name())
		}
		if rs.Steps >= ps.Steps {
			t.Errorf("%s: regions did not reduce kernel launches: %d -> %d",
				m.Name(), ps.Steps, rs.Steps)
		}
		if rs.RowRegions == 0 && rs.GraphKernels != ps.GraphKernels || rs.RowRegions > 0 && rs.GraphKernels >= ps.GraphKernels {
			t.Errorf("%s: graph kernels changed %d -> %d with %d row-resident regions (only those absorb graph nodes)",
				m.Name(), ps.GraphKernels, rs.GraphKernels, rs.RowRegions)
		}
		if rs.RegionSavedBytes <= 0 {
			t.Errorf("%s: region saved bytes = %d, want > 0", m.Name(), rs.RegionSavedBytes)
		}
		a, err := pair.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		b, err := region.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		if !b.AllClose(a, 1e-4, 1e-4) {
			t.Errorf("%s: region output diverges from pair-only (maxdiff %v)", m.Name(), b.MaxDiff(a))
		}
	}
}

// TestRegionFusionAcrossModels: every model compiles and verifies with
// regions on, across all backends, matching the pair-only output.
func TestRegionFusionAcrossModels(t *testing.T) {
	g := smallGraph(t, 32)
	const inFeat, classes = 12, 5
	x := tensor.NewDense(g.NumVertices(), inFeat)
	x.FillRandom(rand.New(rand.NewSource(23)), 1)

	backends := []core.ExecBackend{
		core.ReferenceBackend(),
		core.NewParallelBackend(2),
		core.NewShardedParallelBackend(2, 4),
	}
	for _, m := range All() {
		pairEng := regionEngine(true)
		pair, err := CompileModel(m, g, inFeat, classes, pairEng)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pair.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range backends {
			eng := regionEngine(false)
			eng.Compute = b
			cp, err := CompileModel(m, g, inFeat, classes, eng)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name(), b.Name(), err)
			}
			if rep := cp.Verify(); !rep.OK() {
				t.Fatalf("%s/%s: region compile reports violations: %v", m.Name(), b.Name(), rep.Diags)
			}
			got, err := cp.Run(x)
			if err != nil {
				t.Fatal(err)
			}
			if !got.AllClose(want, 1e-4, 1e-4) {
				t.Errorf("%s/%s: regions diverge from pair-only (maxdiff %v)",
					m.Name(), b.Name(), got.MaxDiff(want))
			}
		}
	}
}

// epilogueModes counts cp's graph steps by where their region epilogue runs.
func epilogueModes(cp *program.CompiledProgram) (inChunk, after int) {
	for _, sm := range cp.StepModes() {
		switch sm.Epilogue {
		case core.EpilogueInChunk:
			inChunk++
		case core.EpilogueAfter:
			after++
		}
	}
	return inChunk, after
}

// bareKernels lowers on the wrapped backend and returns kernels stripped to
// CompiledKernel plus the write discipline the verifier asks for — no
// EpilogueBinder.
type bareKernels struct{ core.ExecBackend }

type bareKernel struct{ core.CompiledKernel }

func (k bareKernel) ConflictHandling() string {
	return k.CompiledKernel.(core.ConflictReporter).ConflictHandling()
}

func (b bareKernels) Lower(p *core.Plan, g *graph.Graph, o core.Operands) (core.CompiledKernel, error) {
	k, err := b.ExecBackend.Lower(p, g, o)
	return bareKernel{k}, err
}

// TestEpilogueInChunkMatchesAfter: a region's output epilogue applied by the
// chunk that produced the rows gives exactly the bits of the same epilogue
// run as a stage after the kernel — it is the same elementwise chain over the
// same values, only sooner and on more goroutines. The after arm is the same
// backend behind a decorator that hides everything but CompiledKernel from
// the compiler, so no kernel can take an epilogue; its stage runs through the
// dense splitter (GAT's exp chains are above the inline threshold here, GCN's
// relu is below it).
func TestEpilogueInChunkMatchesAfter(t *testing.T) {
	g := denseGraph(t, 37)
	const inFeat, classes = 64, 7
	x := poolInput(g, inFeat)
	for _, m := range []Model{NewGCN(), NewGAT()} {
		compile := func(b core.ExecBackend) *program.CompiledProgram {
			eng := poolEngine(2)
			eng.AggrSchedule = core.Schedule{Strategy: core.ThreadEdge, Group: 1, Tile: 1}
			eng.Compute = b
			cp, err := CompileModel(m, g, inFeat, classes, eng)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name(), b.Name(), err)
			}
			return cp
		}
		in := compile(core.NewParallelBackend(2))
		aft := compile(bareKernels{core.NewParallelBackend(2)})
		if n, a := epilogueModes(in); n == 0 || a != 0 {
			t.Fatalf("%s on parallel: %d epilogues in-chunk, %d after; want all in-chunk", m.Name(), n, a)
		}
		if n, a := epilogueModes(aft); n != 0 || a == 0 {
			t.Fatalf("%s behind bareKernels: %d epilogues in-chunk, %d after; want all after", m.Name(), n, a)
		}
		want, err := aft.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := in.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: epilogue in-chunk differs from epilogue after (maxdiff %g)", m.Name(), got.MaxDiff(want))
		}
	}
}

// TestRowWalkBitIdenticalAcrossWorkers: every reduction walks destination
// rows with one owner per row whatever strategy its plan names, so compiled
// logits under edge-parallel schedules are the same bits at 1, 2 and 4
// workers — which the per-worker partial buffers this replaced could not
// give — and the same bits as under a vertex-parallel schedule. That holds
// with the vector kernels under the GEMM and the span kernels and with the Go
// loops alone, and the two kernel sets agree with each other to the bit.
func TestRowWalkBitIdenticalAcrossWorkers(t *testing.T) {
	logits := map[string][]*tensor.Dense{} // per model, one per kernel set
	vectest.EachKernelSet(t, func(t *testing.T) { testRowWalkBitIdenticalAcrossWorkers(t, logits) })
	for name, l := range logits {
		if len(l) == 2 && l[0].BitDiff(l[1]) >= 0 {
			t.Errorf("%s: logits differ between the vector kernels and the Go loops (maxdiff %g)", name, l[0].MaxDiff(l[1]))
		}
	}
}

func testRowWalkBitIdenticalAcrossWorkers(t *testing.T, logits map[string][]*tensor.Dense) {
	g := denseGraph(t, 41)
	const inFeat, classes = 64, 7
	x := poolInput(g, inFeat)
	for _, m := range All() {
		base, err := CompileModel(m, g, inFeat, classes, poolEngine(1))
		if err != nil {
			t.Fatal(err)
		}
		out, err := base.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		want := out.Clone()
		logits[m.Name()] = append(logits[m.Name()], want)
		for _, strat := range []core.Strategy{core.ThreadEdge, core.WarpEdge} {
			for _, workers := range []int{1, 2, 4} {
				eng := poolEngine(workers)
				eng.AggrSchedule = core.Schedule{Strategy: strat, Group: 1, Tile: 1}
				cp, err := CompileModel(m, g, inFeat, classes, eng)
				if err != nil {
					t.Fatal(err)
				}
				for _, sm := range cp.StepModes() {
					if sm.Op == "graph" && sm.Walk != core.WalkRows && sm.Walk != core.WalkEdgeChunks {
						t.Fatalf("%s: graph step %s reports walk %q", m.Name(), sm.Name, sm.Walk)
					}
				}
				got, err := cp.Run(x)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s %s workers=%d: logits differ from thread-vertex at workers=1 (maxdiff %g)",
						m.Name(), strat, workers, got.MaxDiff(want))
				}
			}
		}
	}
}
