package core

import (
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func TestCompilePasses(t *testing.T) {
	// Pass 1 (fusion): copy ops fuse; binary edge op + reduction does not.
	fused := MustCompile(ops.AggrSum, DefaultSchedule)
	if !fused.Fused {
		t.Error("copy_lhs edge op should fuse")
	}
	unfused := MustCompile(ops.WeightedAggrSum, DefaultSchedule)
	if unfused.Fused {
		t.Error("mul+sum should not fuse")
	}
	if unfused.InstsPerElement <= fused.InstsPerElement {
		t.Error("unfused plan should cost more per element")
	}

	// Pass 2 (atomics): edge-parallel aggregation needs atomics; vertex-
	// parallel does not; message creation never does.
	for _, tc := range []struct {
		op    ops.OpInfo
		strat Strategy
		want  bool
	}{
		{ops.AggrSum, ThreadEdge, true},
		{ops.AggrSum, WarpEdge, true},
		{ops.AggrSum, ThreadVertex, false},
		{ops.AggrSum, WarpVertex, false},
		{ops.UAddV, ThreadEdge, false},
		{ops.CopyU, WarpEdge, false},
	} {
		p := MustCompile(tc.op, Schedule{tc.strat, 1, 1})
		if p.NeedsAtomic != tc.want {
			t.Errorf("%s under %s: NeedsAtomic = %v, want %v",
				tc.op.Name, tc.strat, p.NeedsAtomic, tc.want)
		}
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	if _, err := Compile(ops.OpInfo{}, DefaultSchedule); err == nil {
		t.Error("invalid op should fail")
	}
	if _, err := Compile(ops.AggrSum, Schedule{ThreadEdge, 0, 1}); err == nil {
		t.Error("invalid schedule should fail")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCompile(ops.OpInfo{}, DefaultSchedule)
}

func simulateOp(t *testing.T, op ops.OpInfo, sched Schedule, feat int, widthOneB bool) gpu.Metrics {
	t.Helper()
	g := testGraph(t, 3000, 30000, 11)
	dev := gpu.V100()
	fa, aCols, bCols := OperandWidths(op, feat, widthOneB)
	m, err := Estimate(g, op, fa, aCols, bCols, sched, dev)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestKernelLaunchGeometry(t *testing.T) {
	g := testGraph(t, 1000, 8000, 3)
	dev := gpu.V100()

	build := func(s Schedule) gpu.Kernel {
		p := MustCompile(ops.AggrSum, s)
		return p.Kernel(g, 32, 32, 0, dev)
	}

	tv := build(Schedule{ThreadVertex, 1, 1})
	te := build(Schedule{ThreadEdge, 1, 1})
	wv := build(Schedule{WarpVertex, 1, 1})
	we := build(Schedule{WarpEdge, 1, 1})

	// Thread strategies: ceil(units/256) blocks. Warp strategies: ceil(units/8).
	if got, want := tv.NumBlocks(), (1000+255)/256; got != want {
		t.Errorf("TV blocks = %d, want %d", got, want)
	}
	if got, want := te.NumBlocks(), (8000+255)/256; got != want {
		t.Errorf("TE blocks = %d, want %d", got, want)
	}
	if got, want := wv.NumBlocks(), (1000+7)/8; got != want {
		t.Errorf("WV blocks = %d, want %d", got, want)
	}
	if got, want := we.NumBlocks(), (8000+7)/8; got != want {
		t.Errorf("WE blocks = %d, want %d", got, want)
	}

	// Grouping shrinks the launch; tiling grows it.
	grouped := build(Schedule{ThreadEdge, 8, 1})
	if got, want := grouped.NumBlocks(), (1000+255)/256; got != want {
		t.Errorf("TE G8 blocks = %d, want %d", got, want)
	}
	tiled := build(Schedule{WarpEdge, 1, 2}) // F=32 has 1 chunk; tile 2 still launches 2x
	if got, want := tiled.NumBlocks(), (16000+7)/8; got != want {
		t.Errorf("WE T2 blocks = %d, want %d", got, want)
	}
}

func TestKernelWorkConservation(t *testing.T) {
	// Total instructions across blocks must scale with E x F for edge
	// strategies regardless of grouping/tiling (work is conserved, only
	// redistributed), modulo overhead terms.
	g := testGraph(t, 500, 5000, 5)
	dev := gpu.V100()
	base := 0.0
	for i, sched := range []Schedule{
		{WarpEdge, 1, 1}, {WarpEdge, 4, 1}, {WarpEdge, 1, 2},
	} {
		p := MustCompile(ops.AggrSum, sched)
		k := p.Kernel(g, 64, 64, 0, dev)
		var insts float64
		for b := 0; b < k.NumBlocks(); b++ {
			insts += k.BlockWork(b).Insts
		}
		if i == 0 {
			base = insts
			continue
		}
		if insts < base*0.8 || insts > base*1.6 {
			t.Errorf("%v: insts %v too far from base %v", sched, insts, base)
		}
	}
}

func TestAtomicsOnlyWhereExpected(t *testing.T) {
	for _, tc := range []struct {
		sched  Schedule
		op     ops.OpInfo
		atomic bool
	}{
		{Schedule{ThreadVertex, 1, 1}, ops.AggrSum, false},
		{Schedule{WarpVertex, 1, 1}, ops.AggrSum, false},
		{Schedule{ThreadEdge, 1, 1}, ops.AggrSum, true},
		{Schedule{WarpEdge, 1, 1}, ops.AggrSum, true},
		{Schedule{ThreadEdge, 1, 1}, ops.UAddV, false},
	} {
		m := simulateOp(t, tc.op, tc.sched, 32, false)
		if tc.atomic && m.AtomicTransactions == 0 {
			t.Errorf("%v on %s: expected atomic traffic", tc.sched, tc.op.Name)
		}
		if !tc.atomic && m.AtomicTransactions != 0 {
			t.Errorf("%v on %s: unexpected atomic traffic %v", tc.sched, tc.op.Name, m.AtomicTransactions)
		}
	}
}

func TestCoalescingWarpVsThread(t *testing.T) {
	// Warp-mapped strategies read features coalesced (one LSU request per
	// chunk) while thread-mapped ones replay one request per element: for
	// the same operator, WE must put far less pressure on the L1 port.
	te := simulateOp(t, ops.AggrSum, Schedule{ThreadEdge, 1, 1}, 64, false)
	we := simulateOp(t, ops.AggrSum, Schedule{WarpEdge, 1, 1}, 64, false)
	if we.L1Requests >= te.L1Requests/4 {
		t.Errorf("WE L1 requests %v should be well below TE %v", we.L1Requests, te.L1Requests)
	}
}

func TestParallelismOrdering(t *testing.T) {
	// Table 6: edge strategies launch more parallelism than vertex
	// strategies; warp-mapped more than thread-mapped.
	g := testGraph(t, 2000, 40000, 13)
	dev := gpu.V100()
	blocks := func(s Schedule) int {
		p := MustCompile(ops.AggrSum, s)
		return p.Kernel(g, 64, 64, 0, dev).NumBlocks()
	}
	tv := blocks(Schedule{ThreadVertex, 1, 1})
	te := blocks(Schedule{ThreadEdge, 1, 1})
	wv := blocks(Schedule{WarpVertex, 1, 1})
	we := blocks(Schedule{WarpEdge, 1, 1})
	if !(te > tv && we > wv && wv > tv && we > te) {
		t.Errorf("parallelism ordering violated: tv=%d te=%d wv=%d we=%d", tv, te, wv, we)
	}
}

func TestGroupingImprovesLocalityKnobs(t *testing.T) {
	// V/E grouping trades parallelism for locality: fewer blocks, and the
	// per-step index reads amortise.
	g := testGraph(t, 2000, 40000, 17)
	dev := gpu.V100()
	p1 := MustCompile(ops.AggrSum, Schedule{WarpEdge, 1, 1})
	p8 := MustCompile(ops.AggrSum, Schedule{WarpEdge, 8, 1})
	k1 := p1.Kernel(g, 32, 32, 0, dev)
	k8 := p8.Kernel(g, 32, 32, 0, dev)
	if k8.NumBlocks() >= k1.NumBlocks() {
		t.Error("grouping must shrink the launch")
	}
	if k8.NumBlocks() < k1.NumBlocks()/9 {
		t.Error("grouping by 8 should shrink launch by ~8x")
	}
}

func TestOverTilingWastesUnits(t *testing.T) {
	// Tiling beyond the chunk count launches idle units: occupancy metrics
	// must not crash and active warps should not grow.
	g := testGraph(t, 500, 5000, 19)
	dev := gpu.V100()
	p := MustCompile(ops.AggrSum, Schedule{WarpVertex, 1, 64}) // F=32: 1 chunk, 64 tiles
	k := p.Kernel(g, 32, 32, 0, dev)
	var active int
	for b := 0; b < k.NumBlocks(); b++ {
		active += k.BlockWork(b).ActiveWarps
	}
	// Only tile 0 has work: active warps <= #vertices.
	if active > 500 {
		t.Errorf("over-tiled launch has %d active warps, want <= 500", active)
	}
	m := gpu.Simulate(dev, k)
	if m.Cycles <= 0 {
		t.Error("simulation must still work")
	}
}

func TestTraceDeterministicAndNonEmpty(t *testing.T) {
	g := testGraph(t, 300, 3000, 23)
	dev := gpu.V100()
	for _, strat := range Strategies {
		p := MustCompile(ops.AggrSum, Schedule{strat, 2, 2})
		k := p.Kernel(g, 48, 48, 0, dev)
		count := func() int {
			var lines int
			for b := 0; b < k.NumBlocks(); b++ {
				k.TraceBlock(b, func(a gpu.WarpAccess) { lines += len(a.Lines) })
			}
			return lines
		}
		c1, c2 := count(), count()
		if c1 == 0 {
			t.Errorf("%s: empty trace", strat)
		}
		if c1 != c2 {
			t.Errorf("%s: non-deterministic trace: %d vs %d", strat, c1, c2)
		}
	}
}

// TestTraceLineIDBound pins the bound gpu.Simulate's uint32 trace relies on:
// the segment layout's largest address, the last byte of the last segment,
// is a line id below 2^26, far under gpu.MaxTraceLine; and every line a
// kernel of each strategy traces, over an edge-valued op that reaches the
// edge segments, stays inside its layout.
func TestTraceLineIDBound(t *testing.T) {
	last := (segEdgeDst*segmentBytes + segmentBytes - 1) >> 7
	if last >= 1<<26 || last > gpu.MaxTraceLine {
		t.Fatalf("largest line id %d: want below 2^26 and gpu.MaxTraceLine", last)
	}
	g := testGraph(t, 300, 3000, 31)
	dev := gpu.V100()
	for _, strat := range Strategies {
		p := MustCompile(ops.WeightedAggrSum, Schedule{strat, 2, 2})
		k := p.Kernel(g, 48, 48, 1, dev)
		for b := 0; b < k.NumBlocks(); b++ {
			k.TraceBlock(b, func(a gpu.WarpAccess) {
				for _, l := range a.Lines {
					if l < 0 || l > last {
						t.Fatalf("%s: block %d traced line %d outside [0, %d]", strat, b, l, last)
					}
				}
			})
		}
	}
}

func TestTraceVolumeTracksWork(t *testing.T) {
	// The sampled trace's transaction count should be within a reasonable
	// factor of the analytic BlockWork transactions for the same blocks.
	g := testGraph(t, 400, 6000, 29)
	dev := gpu.V100()
	for _, strat := range Strategies {
		p := MustCompile(ops.WeightedAggrSum, Schedule{strat, 1, 1})
		k := p.Kernel(g, 32, 32, 1, dev)
		var traced, analytic float64
		for b := 0; b < k.NumBlocks(); b++ {
			k.TraceBlock(b, func(a gpu.WarpAccess) { traced += float64(len(a.Lines)) })
			w := k.BlockWork(b)
			analytic += w.Transactions
		}
		ratio := traced / analytic
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("%s: trace/analytic transaction ratio %v out of range (traced %v analytic %v)",
				strat, ratio, traced, analytic)
		}
	}
}

func TestDstStats(t *testing.T) {
	d, m := dstStats([]int32{1, 2, 3, 4})
	if d != 4 || m != 1 {
		t.Errorf("all distinct: got (%d,%d)", d, m)
	}
	d, m = dstStats([]int32{5, 5, 5, 5})
	if d != 1 || m != 4 {
		t.Errorf("all same: got (%d,%d)", d, m)
	}
	d, m = dstStats([]int32{1, 2, 1, 3, 1})
	if d != 3 || m != 3 {
		t.Errorf("mixed: got (%d,%d)", d, m)
	}
	d, m = dstStats(nil)
	if d != 0 {
		t.Errorf("empty: got (%d,%d)", d, m)
	}
}

func TestGenerateSource(t *testing.T) {
	te := MustCompile(ops.WeightedAggrSum, Schedule{ThreadEdge, 4, 2}).GenerateSource()
	if !strings.Contains(te, "atomicAdd") {
		t.Error("TE aggregation source must use atomicAdd")
	}
	if !strings.Contains(te, "edge_tmp") {
		t.Error("unfused op should materialise edge_tmp")
	}
	tv := MustCompile(ops.AggrSum, Schedule{ThreadVertex, 1, 1}).GenerateSource()
	if !strings.Contains(tv, "acc[f] +=") {
		t.Error("TV aggregation should accumulate in registers")
	}
	if strings.Contains(tv, "atomicAdd") {
		t.Error("TV must not use atomic stores")
	}
	wv := MustCompile(ops.AggrMax, Schedule{WarpVertex, 1, 1}).GenerateSource()
	if !strings.Contains(wv, "max(") {
		t.Error("max gather should emit max()")
	}
	we := MustCompile(ops.AggrMax, Schedule{WarpEdge, 1, 1}).GenerateSource()
	if !strings.Contains(we, "atomicMax") {
		t.Error("WE max gather should emit atomicMax")
	}
	msgc := MustCompile(ops.UAddV, Schedule{ThreadEdge, 1, 1}).GenerateSource()
	if !strings.Contains(msgc, "C[edge * F + f] =") {
		t.Error("message creation writes per-edge rows")
	}
	minSrc := MustCompile(ops.OpInfo{
		Name: "aggr_min", EdgeOp: ops.CopyLHS, GatherOp: ops.GatherMin,
		AKind: tensor.SrcV, CKind: tensor.DstV,
	}, Schedule{WarpEdge, 1, 1}).GenerateSource()
	if !strings.Contains(minSrc, "atomicMin") {
		t.Error("WE min gather should emit atomicMin")
	}
}

func TestEstimateMatchesKernelFor(t *testing.T) {
	g := testGraph(t, 300, 2400, 31)
	dev := gpu.V100()
	op := ops.WeightedAggrSum
	o := makeOperands(g, op, 32, true, 5)
	p := MustCompile(op, Schedule{WarpEdge, 2, 1})
	k, err := p.KernelFor(g, o, dev)
	if err != nil {
		t.Fatal(err)
	}
	mk := gpu.Simulate(dev, k)
	me, err := Estimate(g, op, 32, 32, 1, Schedule{WarpEdge, 2, 1}, dev)
	if err != nil {
		t.Fatal(err)
	}
	if mk.Cycles != me.Cycles {
		t.Errorf("KernelFor and Estimate disagree: %v vs %v", mk.Cycles, me.Cycles)
	}
}

func TestRunProducesOutputAndMetrics(t *testing.T) {
	g := testGraph(t, 200, 1000, 37)
	dev := gpu.V100()
	o := makeOperands(g, ops.AggrSum, 16, false, 9)
	ref := makeOperands(g, ops.AggrSum, 16, false, 9)
	if err := Reference(g, ops.AggrSum, ref); err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, ops.AggrSum, o, Schedule{WarpEdge, 1, 1}, dev)
	if err != nil {
		t.Fatal(err)
	}
	if !o.C.T.AllClose(ref.C.T, 1e-4, 1e-4) {
		t.Error("Run output wrong")
	}
	if res.Metrics.Cycles <= 0 {
		t.Error("Run must simulate")
	}
	if _, err := Run(g, ops.OpInfo{}, o, DefaultSchedule, dev); err == nil {
		t.Error("invalid op should fail")
	}
}

func TestOperandWidths(t *testing.T) {
	f, a, b := OperandWidths(ops.WeightedAggrSum, 64, true)
	if f != 64 || a != 64 || b != 1 {
		t.Errorf("got (%d,%d,%d)", f, a, b)
	}
	f, a, b = OperandWidths(ops.AggrSum, 32, false)
	if f != 32 || a != 32 || b != 0 {
		t.Errorf("got (%d,%d,%d)", f, a, b)
	}
}
