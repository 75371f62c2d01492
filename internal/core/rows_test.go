package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/vec/vectest"
)

// rowSets are sorted, distinct row lists over numV vertices that exercise the
// run splitting: single rows, a long run, everything, the first and last row,
// and — on the hub fixture — the row that is a region's sub-run alone.
func rowSets(numV int) [][]int32 {
	rng := rand.New(rand.NewSource(5))
	scattered := make([]int32, 0, 40)
	for len(scattered) < 40 {
		if r := int32(rng.Intn(numV)); !slices.Contains(scattered, r) {
			scattered = append(scattered, r)
		}
	}
	slices.Sort(scattered)
	run := make([]int32, 0, 64)
	for r := int32(numV / 3); r < int32(numV/3+64) && int(r) < numV; r++ {
		run = append(run, r)
	}
	all := make([]int32, numV)
	for i := range all {
		all[i] = int32(i)
	}
	return [][]int32{{3}, {0, int32(numV - 1)}, scattered, run, append([]int32{1, 2, 3, 4}, run...), all}
}

// poison fills d with NaN and returns it.
func poison(d *tensor.Dense) *tensor.Dense {
	d.Fill(float32(math.NaN()))
	return d
}

// checkRows fails unless out holds want's bits in every row of rows and NaN —
// untouched poison — everywhere else.
func checkRows(t *testing.T, label string, out, want *tensor.Dense, rows []int32) {
	t.Helper()
	for r := 0; r < out.Rows; r++ {
		got := out.Row(r)
		if _, in := slices.BinarySearch(rows, int32(r)); in {
			w := want.Row(r)
			for j := range got {
				if math.Float32bits(got[j]) != math.Float32bits(w[j]) {
					t.Fatalf("%s: row %d column %d is %v, the full run wrote %v", label, r, j, got[j], w[j])
				}
			}
			continue
		}
		for j := range got {
			if got[j] == got[j] {
				t.Fatalf("%s: row %d, which was not asked for, was written (%v)", label, r, got[j])
			}
		}
	}
}

// TestKernelRunRowsMatchesRun: the row walk's RunRows writes, in exactly the
// rows asked for, the bits the flat Run writes there — sum, mean, max, the
// scaled sum, a Dst_V operand — with a bound epilogue applied to those rows
// once, at every worker and shard count the kernel was lowered for, on both
// kernel sets; a sharded Run writes the flat Run's bits. The kernel site
// counts the full run only.
func TestKernelRunRowsMatchesRun(t *testing.T) {
	t.Cleanup(telemetry.Reset)
	g := hubFixture(t)
	numV, numE := g.NumVertices(), g.NumEdges()
	rng := rand.New(rand.NewSource(9))
	x, y := randomDense(rng, numV, 24), randomDense(rng, numV, 24)
	w := randomDense(rng, numE, 1)
	for _, tc := range []struct {
		name string
		op   ops.OpInfo
		a, b tensor.Typed
	}{
		{"copy_u.sum", ops.OpInfo{EdgeOp: ops.CopyLHS, GatherOp: ops.GatherSum, AKind: tensor.SrcV, CKind: tensor.DstV}, tensor.Src(x), tensor.NullTensor},
		{"copy_u.mean", ops.OpInfo{EdgeOp: ops.CopyLHS, GatherOp: ops.GatherMean, AKind: tensor.SrcV, CKind: tensor.DstV}, tensor.Src(x), tensor.NullTensor},
		{"copy_u.max", ops.OpInfo{EdgeOp: ops.CopyLHS, GatherOp: ops.GatherMax, AKind: tensor.SrcV, CKind: tensor.DstV}, tensor.Src(x), tensor.NullTensor},
		{"u_mul_e.sum", ops.OpInfo{EdgeOp: ops.EdgeMul, GatherOp: ops.GatherSum, AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.DstV}, tensor.Src(x), tensor.Edge(w)},
		{"u_add_v.sum", ops.OpInfo{EdgeOp: ops.EdgeAdd, GatherOp: ops.GatherSum, AKind: tensor.SrcV, BKind: tensor.DstV, CKind: tensor.DstV}, tensor.Src(x), tensor.Dst(y)},
	} {
		vectest.EachKernelSet(t, func(t *testing.T) {
			var want *tensor.Dense
			for _, workers := range []int{1, 2, 4} {
				for _, shards := range []int{1, 4} {
					label := fmt.Sprintf("%s workers=%d shards=%d", tc.name, workers, shards)
					out := tensor.NewDense(numV, 24)
					telemetry.Reset()
					telemetry.SetEnabled(true)
					k, err := NewShardedParallelBackend(workers, shards).Lower(MustCompile(tc.op, tvSchedule), g, Operands{A: tc.a, B: tc.b, C: tensor.Dst(out)})
					if err != nil {
						t.Fatal(err)
					}
					relu := func(lo, hi int) { r := out.RowRange(lo, hi); tensor.ReLU(&r) }
					if !k.(EpilogueBinder).BindEpilogue(relu) {
						t.Fatal("the kernel refused an epilogue")
					}
					rr, ok := AsRowRunner(k)
					if !ok {
						t.Fatalf("%s: the row walk has no row-set form", label)
					}
					if err := k.Run(); err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = out.Clone() // workers=1, shards=1: the flat pass
					} else if d := out.BitDiff(want); d >= 0 {
						t.Fatalf("%s: Run differs from the flat one at element %d", label, d)
					}
					for _, rows := range rowSets(numV) {
						poison(out)
						if err := rr.RunRows(context.Background(), rows); err != nil {
							t.Fatal(err)
						}
						checkRows(t, label, out, want, rows)
					}
					if st := telemetry.Default().SiteStats(); len(st) != 1 || st[0].Runs != 1 {
						t.Errorf("%s: kernel sites %+v after one Run and six RunRows, want one site with 1 run", label, st)
					}
				}
			}
		})
	}
}

// TestRegionRunRowsMatchesRun: the row-resident region's RunRows, whose runs
// are cut into sub-runs by the slab capacity wherever they fall — through the
// hub row that is a sub-run alone, across zero-degree stretches, over many
// light rows — writes the flat full run's bits, flat or sharded.
func TestRegionRunRowsMatchesRun(t *testing.T) {
	for _, fx := range []struct {
		name string
		g    *graph.Graph
	}{{"hub", hubFixture(t)}, {"many-rows", manyRowsFixture(t)}} {
		for _, rc := range softmaxRegions(fx.g, 8, 16, 31) {
			vectest.EachKernelSet(t, func(t *testing.T) {
				var want *tensor.Dense
				for _, workers := range []int{1, 2} {
					for _, shards := range []int{1, 4} {
						label := fmt.Sprintf("%s/%s workers=%d shards=%d", fx.name, rc.name, workers, shards)
						k := lowerRegion(t, fx.g, rc, workers, shards)
						out := rc.o.C.T
						k.BindEpilogue(func(lo, hi int) { r := out.RowRange(lo, hi); tensor.LeakyReLU(&r, 0.1) })
						if !k.RunsRows() {
							t.Fatal("the row-resident region has no row-set form")
						}
						if err := k.Run(); err != nil {
							t.Fatal(err)
						}
						if want == nil {
							want = out.Clone() // workers=1, shards=1: the flat pass
						} else if d := out.BitDiff(want); d >= 0 {
							t.Fatalf("%s: Run differs from the flat one at element %d", label, d)
						}
						for _, rows := range rowSets(fx.g.NumVertices()) {
							poison(out)
							if err := k.RunRows(context.Background(), rows); err != nil {
								t.Fatal(err)
							}
							checkRows(t, label, out, want, rows)
						}
					}
				}
			})
		}
	}
}

// TestWhichLoweringsRunRows pins the capability table: the row walk, flat or
// sharded, the row-resident region, flat or sharded, and what wraps them
// without stages say yes; edge-output, reference, unfused, a region with
// a stage, and a ladder whose primary is already the fallback say no.
func TestWhichLoweringsRunRows(t *testing.T) {
	g := hubFixture(t)
	numV, numE := g.NumVertices(), g.NumEdges()
	x := randomDense(rand.New(rand.NewSource(1)), numV, 8)
	sum := MustCompile(ops.OpInfo{EdgeOp: ops.CopyLHS, GatherOp: ops.GatherSum, AKind: tensor.SrcV, CKind: tensor.DstV}, tvSchedule)
	msg := MustCompile(ops.OpInfo{EdgeOp: ops.CopyLHS, GatherOp: ops.GatherCopyRHS, AKind: tensor.SrcV, CKind: tensor.EdgeK}, DefaultSchedule)
	aggr := func() Operands {
		return Operands{A: tensor.Src(x), B: tensor.NullTensor, C: tensor.Dst(tensor.NewDense(numV, 8))}
	}
	lower := func(b ExecBackend, p *Plan, o Operands) CompiledKernel {
		t.Helper()
		k, err := b.Lower(p, g, o)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	flat := NewParallelBackend(2)
	stage := []RegionStage{func() {}}
	failing := NewResilientBackend(failLowerBackend{})
	failing.SetLogger(nil)
	rc := softmaxRegions(g, 8, 16, 31)[0]
	unfused, err := lowerUnfused(flat, MustCompile(rc.op, tvSchedule), g, rc.o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		k    CompiledKernel
		want bool
	}{
		{"flat row walk", lower(flat, sum, aggr()), true},
		{"behind the ladder", lower(NewResilientBackend(flat), sum, aggr()), true},
		{"composed region, epilogue in the chunks", ComposeRegion(lower(flat, sum, aggr()), nil, nil, "r", g), true},
		{"ladder around a composed region", ComposeRegion(lower(NewResilientBackend(flat), sum, aggr()), nil, nil, "r", g), true},
		{"composed region with a staged prologue", ComposeRegion(lower(flat, sum, aggr()), stage, nil, "r", g), false},
		{"composed region with an epilogue stage", ComposeRegion(lower(flat, sum, aggr()), nil, stage, "r", g), false},
		{"edge-output", lower(flat, msg, Operands{A: tensor.Src(x), B: tensor.NullTensor, C: tensor.Edge(tensor.NewDense(numE, 8))}), false},
		{"sharded", lower(NewShardedParallelBackend(2, 4), sum, aggr()), true},
		{"row-resident region", lower(flat, MustCompile(rc.op, tvSchedule), rc.o), true},
		{"sharded row-resident region", lower(NewShardedParallelBackend(2, 4), MustCompile(rc.op, tvSchedule), rc.o), true},
		{"reference", lower(ReferenceBackend(), sum, aggr()), false},
		{"unfused region", unfused, false},
		{"ladder whose primary could not lower", lower(failing, sum, aggr()), false},
	} {
		if _, got := AsRowRunner(tc.k); got != tc.want {
			t.Errorf("%s: runs rows = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// failLowerBackend lowers nothing.
type failLowerBackend struct{}

func (failLowerBackend) Name() string { return "failing" }
func (failLowerBackend) Lower(*Plan, *graph.Graph, Operands) (CompiledKernel, error) {
	return nil, errors.New("no lowering")
}

// TestRunRowsCancelPanicAndNumerics: a row run stops on a context that has
// fired, turns a chunk panic into a *KernelError without laddering (the ladder
// is a whole-tensor affair), and scans for NaN only the rows it wrote.
func TestRunRowsCancelPanicAndNumerics(t *testing.T) {
	defer faultinject.Reset()
	defer SetCheckNumerics(false)
	g := hubFixture(t)
	numV := g.NumVertices()
	x := randomDense(rand.New(rand.NewSource(1)), numV, 8)
	out := tensor.NewDense(numV, 8)
	rb := NewResilientBackend(NewParallelBackend(2))
	rb.SetLogger(nil)
	k, err := rb.Lower(MustCompile(ops.OpInfo{EdgeOp: ops.CopyLHS, GatherOp: ops.GatherSum, AKind: tensor.SrcV, CKind: tensor.DstV}, tvSchedule),
		g, Operands{A: tensor.Src(x), B: tensor.NullTensor, C: tensor.Dst(out)})
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := AsRowRunner(k)
	if !ok {
		t.Fatal("no row-set form behind the ladder")
	}
	rows := []int32{2, 3, 50}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rr.RunRows(ctx, rows); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: %v", err)
	}

	faultinject.Arm(faultinject.KernelPanicLoad, faultinject.Spec{Every: 1, Limit: 1})
	var ke *KernelError
	if err := rr.RunRows(context.Background(), rows); !errors.As(err, &ke) {
		t.Errorf("injected chunk panic: %v, want a *KernelError", err)
	}
	if rb.Fallbacks() != 0 {
		t.Errorf("a row run laddered (%d fallbacks)", rb.Fallbacks())
	}
	faultinject.Reset()

	SetCheckNumerics(true)
	poison(out)
	if err := rr.RunRows(context.Background(), rows); err != nil {
		t.Errorf("stale NaN outside the written rows tripped the guard: %v", err)
	}
	faultinject.Arm(faultinject.NaNPoke, faultinject.Spec{Every: 1, Limit: 1})
	var ne *NumericError
	if err := rr.RunRows(context.Background(), rows); !errors.As(err, &ne) || ne.Index != int(rows[0])*out.Cols {
		t.Errorf("NaN poked into the first written row: %v, want a *NumericError at element %d", err, int(rows[0])*out.Cols)
	}
}

func TestNextRun(t *testing.T) {
	rows := []int32{0, 1, 2, 5, 7, 8, 11}
	var got [][2]int32
	for i := 0; i < len(rows); {
		lo, hi, next := NextRun(rows, i)
		got = append(got, [2]int32{lo, hi})
		i = next
	}
	want := [][2]int32{{0, 3}, {5, 6}, {7, 9}, {11, 12}}
	if !slices.Equal(got, want) {
		t.Errorf("runs of %v = %v, want %v", rows, got, want)
	}
}
