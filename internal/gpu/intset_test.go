package gpu

import (
	"math/rand"
	"testing"
)

func TestLineSetBasics(t *testing.T) {
	s := &lineSet{}
	if !s.Add(10) {
		t.Fatal("first insert should be new")
	}
	if s.Add(10) {
		t.Fatal("second insert should not be new")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Add(0) {
		t.Fatal("zero must be storable")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestLineSetGrowth(t *testing.T) {
	s := &lineSet{}
	const n = 10000
	for i := uint32(0); i < n; i++ {
		if !s.Add(i * 131) {
			t.Fatalf("value %d reported duplicate", i)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	// All values still present after growth.
	for i := uint32(0); i < n; i++ {
		if s.Add(i * 131) {
			t.Fatalf("value %d lost during growth", i)
		}
	}
}

func TestLineSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := &lineSet{}
	ref := map[uint32]bool{}
	for i := 0; i < 20000; i++ {
		v := uint32(rng.Intn(5000))
		if i%2 == 0 {
			v = rng.Uint32() % (MaxTraceLine + 1) // across pages
		}
		wantNew := !ref[v]
		ref[v] = true
		if got := s.Add(v); got != wantNew {
			t.Fatalf("Add(%d) = %v, want %v", v, got, wantNew)
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
	}
}

// TestLineSetReset: a reset set is empty whatever it held, holds ids from
// across the id range, and reuses the pages it cleared instead of
// allocating.
func TestLineSetReset(t *testing.T) {
	s := &lineSet{}
	for i := uint32(0); i < 300000; i += 3 {
		s.Add(i)
	}
	pages := len(s.touched)
	s.reset()
	if s.Len() != 0 || len(s.touched) != 0 || len(s.spare) != pages {
		t.Fatalf("after reset: Len %d, %d touched pages, %d spare (want 0, 0, %d)", s.Len(), len(s.touched), len(s.spare), pages)
	}
	for _, v := range []uint32{0, 3, 7, MaxTraceLine, 1 << 31} {
		if !s.Add(v) {
			t.Fatalf("Add(%d) after reset reported a duplicate", v)
		}
	}
	if s.Add(MaxTraceLine) || s.Add(3) || s.Len() != 5 {
		t.Fatalf("Len %d after re-adding, want 5", s.Len())
	}
	if len(s.spare) != pages-3 { // ids in pages 0, 1<<15 and 1<<16-1
		t.Errorf("three pages in use took %d spares, want 3", pages-len(s.spare))
	}
	s.reset()
	s.reset() // empty: nothing to clear
	if s.Len() != 0 || !s.Add(5) {
		t.Error("set unusable after an empty reset")
	}
}

// WithMaxWorkBlocks overrides the threshold above which per-block work
// accounting switches to stride sampling with scaling. Launches that large
// have thousands of blocks per SM, so per-block variance averages out and
// sampling loses almost no load-balance fidelity.
func WithMaxWorkBlocks(n int) Option {
	return func(c *simConfig) {
		if n > 0 {
			c.maxWorkBlocks = n
		}
	}
}

func TestWithMaxWorkBlocksSampling(t *testing.T) {
	d := V100()
	w := BlockWork{Insts: 100, Transactions: 10, ActiveWarps: 8}
	k := fakeKernel{blocks: 100000, warps: 8, work: w, lineSpread: 8}
	exact := Simulate(d, k, WithMaxWorkBlocks(200000)) // full accounting
	sampled := Simulate(d, k, WithMaxWorkBlocks(1000)) // 1% work sample
	// Uniform blocks: sampling must reproduce totals within rounding.
	if ratio := sampled.Insts / exact.Insts; ratio < 0.99 || ratio > 1.01 {
		t.Errorf("sampled insts ratio %v", ratio)
	}
	if ratio := sampled.Cycles / exact.Cycles; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("sampled cycles ratio %v", ratio)
	}
}

func TestTraceLineBudget(t *testing.T) {
	d := V100()
	w := BlockWork{Insts: 100, Transactions: 1000, ActiveWarps: 8}
	// Each block traces 100k lines; the 1M default budget stops after ~10
	// blocks instead of 192.
	k := fakeKernel{blocks: 500, warps: 8, work: w, lineSpread: 100000}
	m := Simulate(d, k)
	if m.SampledBlocks >= 192 {
		t.Errorf("budget should cap sampled blocks, got %d", m.SampledBlocks)
	}
	if m.SampledBlocks == 0 {
		t.Error("at least one block must be traced")
	}
	if m.L2HitRate < 0 || m.L2HitRate > 1 {
		t.Errorf("hit rate broken under budget: %v", m.L2HitRate)
	}
}

func TestGEMMEfficiencyBranch(t *testing.T) {
	d := V100()
	// Small shapes get the lower-efficiency branch: per-flop cost is higher.
	bigPerFlop := GEMMCycles(d, 100000, 512, 512) / (2 * 100000 * 512 * 512)
	smallPerFlop := GEMMCycles(d, 256, 512, 32) / (2 * 256 * 512 * 32)
	if smallPerFlop <= bigPerFlop {
		t.Errorf("small GEMM per-flop cost %v should exceed large %v", smallPerFlop, bigPerFlop)
	}
}
