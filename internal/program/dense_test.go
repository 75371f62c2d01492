package program

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/tensor"
	"repro/internal/vec"
	"repro/internal/vec/vectest"
	"repro/internal/workpool"
)

// gemmStep builds a packed-GEMM step of the given shape on fresh tensors.
func gemmStep(rows, k, n int) step {
	rng := rand.New(rand.NewSource(9))
	x := tensor.NewDense(rows, k)
	w := tensor.NewDense(k, n)
	x.FillRandom(rng, 1)
	w.FillRandom(rng, 1)
	return step{op: OpGEMM, name: "gemm", out: tensor.NewDense(rows, n), x: x, pb: tensor.PackB(w)}
}

// TestDenseSplitDecision pins the compile-time rule: a step splits exactly
// when the backend has more than one worker and its estimated duration
// reaches denseInlineNs, and a split step's chunks are about denseChunkNs
// long — with the cost of the GEMM kernel that is actually dispatched. The
// small shape is the served CO graph's layer (2708 x 16 x 16, ~0.26 ms as the
// Go loop), which must stay off the pool; the large one is sage-dense's
// concat GEMM (120 ms as the Go loop, 15 ms vectorised), which must split;
// the middle one (1400 x 64 x 16) is 0.55 ms as the Go loop and 0.07 ms
// vectorised, so it splits exactly when the Go loop runs it.
func TestDenseSplitDecision(t *testing.T) {
	vectest.EachKernelSet(t, testDenseSplitDecision)
}

func testDenseSplitDecision(t *testing.T) {
	small := gemmStep(2708, 16, 16)
	if c := denseCostNs(&small); c >= denseInlineNs {
		t.Fatalf("CO-sized GEMM estimated at %.0f ns, want under the %.0f ns inline threshold", c, float64(denseInlineNs))
	}
	bindDense(&small, 4)
	if small.split != nil {
		t.Error("CO-sized GEMM split; it must run inline")
	}

	mid := gemmStep(1400, 64, 16)
	bindDense(&mid, 2)
	if split := mid.split != nil; split == vec.Enabled() {
		t.Errorf("1400x64x16 GEMM estimated at %.0f ns on the %s kernels: split=%v", denseCostNs(&mid), vec.ISA(), split)
	}

	big := gemmStep(19717, 64, 256)
	bindDense(&big, 1)
	if big.split != nil {
		t.Error("workers=1 bound a split plan; the single-worker path must never touch the pool")
	}
	bindDense(&big, 2)
	if big.split == nil {
		t.Fatalf("a %.0f ms GEMM did not split at workers=2", denseCostNs(&big)/1e6)
	}
	if big.split.workers != 2 {
		t.Errorf("split over %d workers, want 2", big.split.workers)
	}
	perChunk := denseCostNs(&big) * float64(big.split.chunk) / float64(big.out.Rows)
	if perChunk < denseChunkNs/2 || perChunk > denseChunkNs*2 {
		t.Errorf("chunk of %d rows estimated at %.0f ns, want about %.0f", big.split.chunk, perChunk, float64(denseChunkNs))
	}

	want := tensor.NewDense(big.out.Rows, big.out.Cols)
	tensor.GemmPackedInto(want, big.x, big.pb)
	if err := big.runSplit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !big.out.Equal(want) {
		t.Errorf("split GEMM differs from the whole product (max diff %g), want bit-identical", big.out.MaxDiff(want))
	}

	// The elementwise constants are per kernel set too: a relu over a million
	// elements is 0.2 ms vectorised and 1.2 ms as the Go loop, so it splits
	// exactly when the Go loop runs it.
	act := tensor.NewDense(4096, 256)
	relu := step{op: OpUnary, name: "relu", out: act, x: act, chain: []Unary{{Kind: UnaryReLU}}, inPlace: true}
	bindDense(&relu, 2)
	if split := relu.split != nil; split == vec.Enabled() {
		t.Errorf("relu over %d elements estimated at %.0f ns on the %s kernels: split=%v", len(act.Data), denseCostNs(&relu), vec.ISA(), split)
	}

	// So is the exponential: GAT's leaky-relu + exp chain over 16384 edges x 8
	// heads is 0.18 ms through the two vector kernels and 0.93 ms as the Go
	// loops, so it too splits exactly when the Go loops run it.
	logits := tensor.NewDense(16384, 8)
	leakyExp := []Unary{{Kind: UnaryLeakyReLU, Alpha: 0.2}, {Kind: UnaryExp}}
	lexp := step{op: OpUnary, name: "leaky_exp", out: logits, x: logits, chain: leakyExp, inPlace: true}
	bindDense(&lexp, 2)
	if split := lexp.split != nil; split == vec.Enabled() {
		t.Errorf("leaky_exp over %d elements estimated at %.0f ns on the %s kernels: split=%v", len(logits.Data), denseCostNs(&lexp), vec.ISA(), split)
	}

	// What a step absorbed is part of its cost: a CO-sized GEMM (2708 x 16 x
	// 24) stays inline on its own and with a relu; with an exp over every
	// output element as well (5.9 ns each as the Go loop, 1.2 vectorised) it
	// splits where the Go loops run.
	for _, tc := range []struct {
		post  []Unary
		split bool
	}{
		{[]Unary{{Kind: UnaryReLU}}, false},
		{leakyExp, !vec.Enabled()},
	} {
		st := gemmStep(2708, 16, 24)
		bare := denseCostNs(&st)
		st.post = tc.post
		if got, want := denseCostNs(&st), bare+chainCostNs(tc.post, false, len(st.out.Data)); got != want {
			t.Errorf("GEMM with a %d-op epilogue estimated at %.0f ns, want its %.0f plus the chain's = %.0f", len(tc.post), got, bare, want)
		}
		bindDense(&st, 2)
		if (st.split != nil) != tc.split {
			t.Errorf("GEMM with a %d-op epilogue, estimated at %.0f ns: split=%v, want %v", len(tc.post), denseCostNs(&st), st.split != nil, tc.split)
		}
	}
}

// TestRegionStageFollowsSplitRule: a region stage that could not ride in a
// kernel's chunk bodies goes through the same rule as a standalone dense
// step — whole on the caller below denseInlineNs or with one worker, in
// disjoint row ranges covering every row once above it — and gives the same
// result either way; a chunk panic re-raises out of the stage (the region
// kernel's recover types it).
func TestRegionStageFollowsSplitRule(t *testing.T) {
	const rows, cols = 48000, 8 // 0.65 ms through the vector kernels, more as Go loops
	chain := []Unary{{Kind: UnaryLeakyReLU, Alpha: 0.2}, {Kind: UnaryExp}}
	src := tensor.NewDense(rows, cols)
	src.FillRandom(rand.New(rand.NewSource(3)), 1)
	want := src.Clone()
	for _, u := range chain {
		u.Apply(want)
	}
	cost := chainCostNs(chain, true, rows*cols)
	if cost < denseInlineNs {
		t.Fatalf("fixture estimated at %.0f ns, want above the inline threshold", cost)
	}
	for _, tc := range []struct {
		name    string
		cost    float64
		workers int
		split   bool
	}{
		{"above the threshold", cost, 2, true},
		{"one worker", cost, 1, false},
		{"below the threshold", denseInlineNs / 2, 2, false},
	} {
		dst := tensor.NewDense(rows, cols)
		var mu sync.Mutex
		covered, calls := 0, 0
		body := chainRows(dst, src, chain)
		stage := regionStage(rows, tc.cost, tc.workers, func(lo, hi int) {
			mu.Lock()
			covered += hi - lo
			calls++
			mu.Unlock()
			body(lo, hi)
		})
		stage()
		if covered != rows || (calls > 1) != tc.split {
			t.Errorf("%s: %d calls covering %d of %d rows (split=%v wanted)", tc.name, calls, covered, rows, tc.split)
		}
		if !dst.Equal(want) {
			t.Errorf("%s: staged chain differs from the whole-tensor chain (max diff %g)", tc.name, dst.MaxDiff(want))
		}
	}

	defer faultinject.Reset()
	faultinject.Arm(faultinject.DenseChunkPanic, faultinject.Spec{After: 2})
	stage := regionStage(rows, cost, 2, func(lo, hi int) {})
	defer func() {
		if r := recover(); r == nil {
			t.Error("a chunk panic inside a pooled stage did not re-raise")
		}
	}()
	stage()
}

// BenchmarkDenseOpCost measures the per-element constants of dense.go that
// are the same under both kernel sets: each operator single-threaded over a
// 19717 x 256 activation (sage-dense's hidden layer), reported as ns per
// element of the tensor the constant is defined over. The per-kernel-set
// ones (relu, add-scaled, exp) come from tensor's BenchmarkElementwise and
// BenchmarkExp.
func BenchmarkDenseOpCost(b *testing.B) {
	const rows, cols = 19717, 256
	rng := rand.New(rand.NewSource(9))
	x := tensor.NewDense(rows, cols)
	y := tensor.NewDense(rows, cols)
	x.FillRandom(rng, 1)
	y.FillRandom(rng, 1)
	out := tensor.NewDense(rows, cols)
	wide := tensor.NewDense(rows, 2*cols)
	narrow := tensor.NewDense(rows, 1)
	for _, c := range []struct {
		name  string
		elems int
		run   func()
	}{
		{"copy", rows * cols, func() { copy(out.Data, x.Data) }},
		{"concat", rows * 2 * cols, func() { tensor.ConcatInto(wide, x, y) }},
		{"row-mean", rows * cols, func() { tensor.RowMeanInto(narrow, x) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.elems), "ns/elem")
		})
	}
}

// BenchmarkDenseSplit is the measurement behind denseInlineNs: one packed
// GEMM (k = n = 64, rows chosen for an estimated 0.1 to 6.4 ms) run whole on
// the caller against the same product split into ~0.1 ms row chunks over two
// pool participants. EXPERIMENTS.md "Dense step splitting" records the
// table.
func BenchmarkDenseSplit(b *testing.B) {
	const k, n = 64, 64
	ctx := context.Background()
	for _, us := range []int{100, 200, 400, 800, 1600, 3200, 6400} {
		rows := int(float64(us) * 1e3 / (gemmNsPerFlop() * float64(tensor.GEMMFlops(1, k, n))))
		st := gemmStep(rows, k, n)
		b.Run(fmt.Sprintf("est=%dus/inline", us), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.GemmPackedInto(st.out, st.x, st.pb)
			}
		})
		out, x, pb := st.out, st.x, st.pb
		job := workpool.NewJob(func(lo, hi int) { tensor.GemmPackedRowsInto(out, x, pb, lo, hi) })
		chunk := max(1, int(float64(rows)*denseChunkNs/denseCostNs(&st)))
		b.Run(fmt.Sprintf("est=%dus/split2", us), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := workpool.Run(ctx, job, rows, chunk, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
