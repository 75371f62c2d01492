package gpu

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// naiveLRU is the reference the differential test holds Cache to: the same
// set mapping and way placement (an invalid way first, else the least
// recently used one, the lowest way on a tie), written as plainly as
// possible — every way's last use kept as a tick, one scan per access.
type naiveLRU struct {
	sets, ways int
	tags       [][]int64 // per set, per way; -1 = invalid
	lastUse    [][]int64
	tick       int64
}

func newNaiveLRU(sets, ways int) *naiveLRU {
	n := &naiveLRU{sets: sets, ways: ways}
	for s := 0; s < sets; s++ {
		tags := make([]int64, ways)
		for w := range tags {
			tags[w] = -1
		}
		n.tags = append(n.tags, tags)
		n.lastUse = append(n.lastUse, make([]int64, ways))
	}
	return n
}

func (n *naiveLRU) access(line int64) bool {
	n.tick++
	set := int(uint64(line) % uint64(n.sets))
	for w, tag := range n.tags[set] {
		if tag == line {
			n.lastUse[set][w] = n.tick
			return true
		}
	}
	victim := -1
	for w, tag := range n.tags[set] {
		if tag == -1 {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = 0
		for w := range n.tags[set] {
			if n.lastUse[set][w] < n.lastUse[set][victim] {
				victim = w
			}
		}
	}
	n.tags[set][victim] = line
	n.lastUse[set][victim] = n.tick
	return false
}

// TestCacheMatchesNaiveLRU drives Cache and naiveLRU with the same streams
// and compares every access's hit or miss and, at the end, the line in every
// way.
func TestCacheMatchesNaiveLRU(t *testing.T) {
	const lineBytes = 128
	shapes := []struct {
		name       string
		sets, ways int
	}{
		{"direct-mapped", 64, 1},
		{"4-way", 32, 4},
		{"16-way", 8, 16},
		{"single-set-4-way", 1, 4},
		{"single-set-16-way", 1, 16},
	}
	streams := map[string]func(lines int) []int64{
		"random": func(lines int) []int64 {
			rng := rand.New(rand.NewSource(int64(lines)))
			s := make([]int64, 20000)
			for i := range s {
				s[i] = rng.Int63n(int64(4 * lines))
			}
			return s
		},
		// One line more than the cache holds, cycled: LRU's pathological
		// stream, where every access after the first pass misses.
		"cyclic": func(lines int) []int64 {
			var s []int64
			for pass := 0; pass < 20; pass++ {
				for l := 0; l <= lines; l++ {
					s = append(s, int64(l))
				}
			}
			return s
		},
		// A working set that fits, touched over and over: all hits after the
		// cold pass.
		"all-hit": func(lines int) []int64 {
			var s []int64
			for pass := 0; pass < 20; pass++ {
				for l := lines - 1; l >= 0; l-- {
					s = append(s, int64(l))
				}
			}
			return s
		},
	}
	for _, sh := range shapes {
		for name, stream := range streams {
			t.Run(sh.name+"/"+name, func(t *testing.T) {
				c := newCache(sh.sets*sh.ways*lineBytes, lineBytes, sh.ways)
				if c.sets != sh.sets || c.ways != sh.ways {
					t.Fatalf("newCache shaped %d sets x %d ways, want %d x %d", c.sets, c.ways, sh.sets, sh.ways)
				}
				ref := newNaiveLRU(sh.sets, sh.ways)
				var hits int
				for i, line := range stream(sh.sets * sh.ways) {
					got, want := c.access(uint32(line)), ref.access(line)
					if got != want {
						t.Fatalf("access %d (line %d): Cache hit=%v, naive LRU hit=%v", i, line, got, want)
					}
					if got {
						hits++
					}
				}
				for s := 0; s < sh.sets; s++ {
					for w := 0; w < sh.ways; w++ {
						if got, want := int64(c.tags[s*sh.ways+w])-1, ref.tags[s][w]; got != want {
							t.Fatalf("set %d way %d holds %d, naive LRU %d", s, w, got, want)
						}
					}
				}
				switch name {
				case "cyclic":
					if sh.sets == 1 && hits != 0 {
						t.Errorf("cyclic stream one line past capacity hit %d times", hits)
					}
				case "all-hit":
					if misses := int64(20*sh.sets*sh.ways) - int64(hits); misses != int64(sh.sets*sh.ways) {
						t.Errorf("fitting working set missed %d times, want only the %d cold misses", misses, sh.sets*sh.ways)
					}
				}
			})
		}
	}
}

// varyKernel is a synthetic kernel whose blocks differ: pseudo-random lines
// over a span, every third access atomic, per-block work growing with the
// block index. Two of them of different sizes exercise every part of the
// reused workspace.
type varyKernel struct {
	blocks, warps int
	accesses      int   // warp accesses per block
	span          int64 // lines are drawn from [base, base+span)
	base          int64
	footprint     int64 // bytes the whole kernel touches
}

func (k varyKernel) NumBlocks() int     { return k.blocks }
func (k varyKernel) WarpsPerBlock() int { return k.warps }
func (k varyKernel) Footprint() int64   { return k.footprint }
func (k varyKernel) BlockWork(b int) BlockWork {
	f := float64(b%7 + 1)
	return BlockWork{Insts: 100 * f, Transactions: 10 * f, L1Requests: 12 * f, MemInsts: 3 * f,
		AtomicTransactions: f, ActiveWarps: k.warps, MaxWarpCycles: 20 * f, BusyWarpCycles: 60 * f}
}
func (k varyKernel) TraceBlock(b int, visit func(WarpAccess)) {
	rng := rand.New(rand.NewSource(int64(b)))
	lines := make([]int64, 0, 8)
	for a := 0; a < k.accesses; a++ {
		lines = lines[:0]
		for i := rng.Intn(8); i >= 0; i-- {
			lines = append(lines, k.base+rng.Int63n(k.span))
		}
		visit(WarpAccess{Lines: lines, Atomic: a%3 == 0})
	}
}

var (
	largeKernel = varyKernel{blocks: 5000, warps: 8, accesses: 400, span: 1 << 20, base: 3 << 23, footprint: 1 << 30}
	// The small kernel's sample is a thousandth of its footprint, so its L2
	// is a few sets: a distinct-line count or a cache left over from the large
	// kernel moves its hit rates.
	smallKernel = varyKernel{blocks: 40, warps: 4, accesses: 30, span: 500, base: 7, footprint: 500 * 128 * 1000}
)

// TestStaleWorkspace: Simulate on a small kernel right after a large one —
// in a workspace the large one grew and filled — equals the small kernel
// simulated in a fresh process.
func TestStaleWorkspace(t *testing.T) {
	if os.Getenv("GPU_SIMULATE_FRESH") == "1" {
		fmt.Printf("%#v\n", Simulate(V100(), smallKernel))
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStaleWorkspace$")
	cmd.Env = append(os.Environ(), "GPU_SIMULATE_FRESH=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("fresh process: %v\n%s", err, out)
	}
	fresh, _, _ := strings.Cut(string(out), "\n")
	// One P, so the pool hands the next call the workspace the last one
	// returned.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		if big := Simulate(V100(), largeKernel); big.SampledBlocks == 0 {
			t.Fatal("large kernel traced nothing")
		}
		if got := fmt.Sprintf("%#v", Simulate(V100(), smallKernel)); got != fresh {
			t.Fatalf("round %d: after a large kernel\n%s\nfresh process\n%s", i, got, fresh)
		}
	}
}

// TestTraceLineBound: the largest id a trace may carry simulates, one past
// it panics (core's segment layout stays far below it, which core's own
// tests pin).
func TestTraceLineBound(t *testing.T) {
	at := fakeLines{lines: []int64{0, MaxTraceLine, MaxTraceLine - 1}}
	if m := Simulate(V100(), at); m.SampledBlocks != 1 {
		t.Fatalf("SampledBlocks %d, want 1", m.SampledBlocks)
	}
	for _, bad := range []int64{MaxTraceLine + 1, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("line %d simulated; want a panic", bad)
				}
			}()
			Simulate(V100(), fakeLines{lines: []int64{bad}})
		}()
	}
}

// fakeLines is a one-block kernel tracing the given lines, one access each.
type fakeLines struct{ lines []int64 }

func (f fakeLines) NumBlocks() int     { return 1 }
func (f fakeLines) WarpsPerBlock() int { return 1 }
func (f fakeLines) BlockWork(b int) BlockWork {
	return BlockWork{Insts: 1, Transactions: 1, ActiveWarps: 1}
}
func (f fakeLines) Footprint() int64 { return int64(len(f.lines)) * 128 }
func (f fakeLines) TraceBlock(b int, visit func(WarpAccess)) {
	for _, l := range f.lines {
		visit(WarpAccess{Lines: []int64{l}})
	}
}
