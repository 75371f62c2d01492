package gpu

import (
	"container/heap"
	"fmt"
	"math"
)

// Metrics reports what the paper collects with nvprof (Figs. 3 and 16) plus
// the raw quantities behind them. Cycles is the primary figure of merit.
type Metrics struct {
	Cycles float64

	// Achieved occupancy: time-weighted active warps per SM over the warp
	// capacity, in [0, 1].
	Occupancy float64
	// SMEfficiency: fraction of SM-time spent busy (load balance), in [0, 1].
	SMEfficiency float64
	// L1HitRate and L2HitRate come from the sampled cache simulation.
	L1HitRate float64
	L2HitRate float64

	Insts              float64
	Transactions       float64
	L1Requests         float64
	AtomicTransactions float64
	L2Accesses         float64
	DRAMBytes          float64

	NumBlocks     int
	WarpsPerBlock int
	SampledBlocks int

	// BoundBy names the resource that determined Cycles: "sm-makespan"
	// (per-SM issue/LSU/latency work, including load imbalance), "l2-bw",
	// "dram-bw", "atomic-bw" or "launch".
	BoundBy string
}

// InstLatencyCycles is the dependent-issue latency charged per warp
// instruction when estimating exposed latency.
const InstLatencyCycles = 4

// simConfig tunes the simulation fidelity / cost trade-off.
type simConfig struct {
	maxSampledBlocks int
	maxWorkBlocks    int
	maxTraceLines    int
	l1Ways           int
	l2Ways           int
}

// Option adjusts simulator fidelity.
type Option func(*simConfig)

// WithMaxSampledBlocks overrides how many blocks feed the cache model.
func WithMaxSampledBlocks(n int) Option {
	return func(c *simConfig) {
		if n > 0 {
			c.maxSampledBlocks = n
		}
	}
}

// resolve applies opts to the default fidelity.
func resolve(opts []Option) simConfig {
	cfg := simConfig{maxSampledBlocks: 192, maxWorkBlocks: 16384, maxTraceLines: 1 << 20, l1Ways: 4, l2Ways: 16}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// OptionsKey is a comparable value standing for the fidelity opts resolve
// to: equal for option lists that simulate alike (none and the defaults
// spelled out, say). A caller memoising simulations keys by it beside the
// kernel's identity and the device.
func OptionsKey(opts ...Option) any { return resolve(opts) }

// Simulate runs kernel k on device d and returns its metrics.
//
// The model (DESIGN.md §4):
//  1. A deterministic stride-sample of blocks is traced through per-SM L1
//     caches and a shared L2 whose capacity is scaled to the sample's share
//     of the kernel's working set, yielding hit rates.
//  2. Every block's exact BlockWork is converted to a block cost in cycles —
//     the max of its issue demand, L1 throughput demand and exposed-latency
//     demand given the resident-warp count — and blocks are greedily
//     list-scheduled onto SMs.
//  3. Kernel time is the makespan, floored by device-wide L2, DRAM and
//     atomic bandwidth demands.
func Simulate(d *Device, k Kernel, opts ...Option) Metrics {
	cfg := resolve(opts)

	numBlocks := k.NumBlocks()
	warpsPerBlock := k.WarpsPerBlock()
	m := Metrics{NumBlocks: numBlocks, WarpsPerBlock: warpsPerBlock}
	if numBlocks == 0 {
		m.Cycles = d.LaunchOverheadCycles
		return m
	}

	// --- Pass 1: sampled cache simulation. ---
	sampled := numBlocks
	if sampled > cfg.maxSampledBlocks {
		sampled = cfg.maxSampledBlocks
	}
	stride := numBlocks / sampled
	if stride < 1 {
		stride = 1
	}
	// The sampled trace exercises only part of the kernel's working set, so
	// it must also see only a proportional share of the L2: first measure
	// the sample's distinct lines, then size the simulated L2 to
	// L2Bytes x (sample working set / kernel footprint). Compulsory misses
	// then occur at the same rate as in the full kernel, with no warmup
	// pass needed.
	// The trace is generated once and recorded, because generating it is
	// the expensive part: the first walk measures the working set (to size
	// the L2), the replay feeds the caches. Each access is one bounds entry
	// holding its line count, negated for atomics; blockEnds marks access
	// boundaries between blocks so the replay keeps each block on one L1.
	// The recording, the distinct-line set, the caches and the block work
	// live in a workspace reused across calls (workspace.go).
	ws := getWorkspace()
	defer putWorkspace(ws)
	record := func(a WarpAccess) {
		ws.lines = reserve(ws.lines, len(a.Lines), cfg.maxTraceLines)
		ws.bounds = reserve(ws.bounds, 1, cfg.maxTraceLines)
		for _, line := range a.Lines {
			if uint64(line) > MaxTraceLine {
				// invariant: core's segment layout keeps line ids below 2^26
				// (eight 1 GiB segments of 128 B lines); an id past
				// MaxTraceLine is a Kernel bug, not an input.
				panic(fmt.Sprintf("gpu: trace line %d outside [0, %d]", line, uint64(MaxTraceLine)))
			}
			ws.distinct.Add(uint32(line))
			ws.lines = append(ws.lines, uint32(line))
		}
		n := int32(len(a.Lines))
		if a.Atomic {
			n = -n
		}
		ws.bounds = append(ws.bounds, n)
	}
	for i := 0; i < sampled && len(ws.lines) < cfg.maxTraceLines; i++ {
		k.TraceBlock(i*stride, record)
		ws.blockEnds = append(ws.blockEnds, len(ws.bounds))
	}
	sampled = len(ws.blockEnds) // blocks actually traced within the line budget
	sampleWS := float64(ws.distinct.Len()) * float64(d.LineBytes)
	footprint := float64(k.Footprint())
	share := 1.0
	if footprint > 0 && sampleWS < footprint {
		share = sampleWS / footprint
	}
	l2 := &ws.l2
	l2.init(int(float64(d.L2Bytes)*share), d.LineBytes, cfg.l2Ways)
	// Sampled blocks round-robin over a pool of simulated SM L1s. The pool is
	// sized to the lesser of the SM count and the sample so each simulated L1
	// sees a realistic (not over-diluted) share of blocks.
	l1Pool := d.NumSMs
	if l1Pool > sampled {
		l1Pool = sampled
	}
	l1s := ws.l1Caches(l1Pool, d.L1Bytes, d.LineBytes, cfg.l1Ways)
	// Replay the recorded trace block by block, each block pinned to one
	// simulated L1.
	var l1Acc, l1Hit, l2Acc, l2Hit int64
	pos := 0
	access := 0
	for i, end := range ws.blockEnds {
		l1 := &l1s[i%l1Pool]
		for ; access < end; access++ {
			n := ws.bounds[access]
			atomic := n < 0
			if atomic {
				n = -n
			}
			for _, line := range ws.lines[pos : pos+int(n)] {
				l1Acc++
				if atomic {
					// Atomics bypass L1 and resolve at L2.
					l2Acc++
					if l2.access(line) {
						l2Hit++
					}
					continue
				}
				if l1.access(line) {
					l1Hit++
					continue
				}
				l2Acc++
				if l2.access(line) {
					l2Hit++
				}
			}
			pos += int(n)
		}
	}
	m.SampledBlocks = sampled
	l1HitRate := 0.0
	if l1Acc > 0 {
		l1HitRate = float64(l1Hit) / float64(l1Acc)
	}
	l2HitRate := 0.0
	if l2Acc > 0 {
		l2HitRate = float64(l2Hit) / float64(l2Acc)
	}
	m.L1HitRate = l1HitRate
	m.L2HitRate = l2HitRate

	// --- Pass 2: exact work accounting and SM scheduling. ---
	pass2 := sampleWork(d, k, cfg, ws)
	works, total, workScale := pass2.works, pass2.total, pass2.scale
	residentBlocks := pass2.residentBlocks
	residentWarps := float64(residentBlocks * warpsPerBlock)

	missL1 := 1 - l1HitRate
	missL2 := 1 - l2HitRate
	avgAccessLatency := l1HitRate*d.L1Latency +
		missL1*l2HitRate*d.L2Latency +
		missL1*missL2*d.DRAMLatency

	// Greedy list scheduling onto SMs (least-loaded first). Very large
	// launches were stride-sampled above and are scaled back afterwards:
	// with thousands of blocks per SM, aggregate loads dominate any single
	// block's contribution.
	sms := makeSMHeap(d.NumSMs)
	var busyWeighted float64 // sum over blocks of cost x effective warps
	for _, w := range works {
		cost := blockCost(d, w, avgAccessLatency, pass2.hiding)
		// The SM runs residentBlocks concurrently sharing its pipelines, so a
		// block's own cost is its resource demand; queuing onto the same SM
		// serialises demands, which the heap accumulation models.
		sm := &sms[0]
		sm.load += cost
		heap.Fix(&sms, 0)
		// Time-weighted warp activity. A warp stays active for the share of
		// the block's duration proportional to its stream length, so the
		// effective concurrently-active warp count is the ratio of total to
		// longest warp streams — 8 for a balanced block, approaching 1 when
		// one hot warp dominates (the divergence tail).
		effWarps := float64(w.ActiveWarps)
		if w.MaxWarpCycles > 0 {
			if r := w.BusyWarpCycles / w.MaxWarpCycles; r < effWarps {
				effWarps = r
			}
		}
		busyWeighted += cost * effWarps
	}

	// Scale the sampled aggregates back to the full launch.
	total.Insts *= workScale
	total.Transactions *= workScale
	total.L1Requests *= workScale
	total.AtomicTransactions *= workScale
	busyWeighted *= workScale
	for i := range sms {
		sms[i].load *= workScale
	}

	m.Insts = total.Insts
	m.Transactions = total.Transactions
	m.L1Requests = total.L1Requests
	if m.L1Requests < m.Transactions {
		m.L1Requests = m.Transactions
	}
	m.AtomicTransactions = total.AtomicTransactions

	// Blend the replayed (guaranteed-hit) requests into the reported L1 hit
	// rate; the trace-measured rate applies to the line-level traffic only.
	if m.L1Requests > 0 {
		m.L1HitRate = (l1HitRate*total.Transactions + (m.L1Requests - total.Transactions)) / m.L1Requests
	}

	var maxLoad, sumLoad float64
	for _, sm := range sms {
		if sm.load > maxLoad {
			maxLoad = sm.load
		}
		sumLoad += sm.load
	}

	// Device-wide bandwidth floors.
	l2Accesses := total.Transactions * missL1
	dramBytes := l2Accesses * missL2 * float64(d.LineBytes)
	m.L2Accesses = l2Accesses
	m.DRAMBytes = dramBytes
	l2Floor := l2Accesses * float64(d.LineBytes) / d.L2BytesPerCycle
	dramFloor := dramBytes / d.DRAMBytesPerCycle
	// Atomics move 32-byte sectors through the L2's read-modify-write path.
	atomicFloor := total.AtomicTransactions * float64(d.LineBytes) / 4 / d.AtomicBytesPerCycle

	cycles := maxLoad
	m.BoundBy = "sm-makespan"
	if l2Floor > cycles {
		cycles = l2Floor
		m.BoundBy = "l2-bw"
	}
	if dramFloor > cycles {
		cycles = dramFloor
		m.BoundBy = "dram-bw"
	}
	if atomicFloor > cycles {
		cycles = atomicFloor
		m.BoundBy = "atomic-bw"
	}
	if cycles < d.LaunchOverheadCycles {
		m.BoundBy = "launch"
	}
	cycles += d.LaunchOverheadCycles
	m.Cycles = cycles

	// SM efficiency: busy SM-time over total SM-time.
	m.SMEfficiency = sumLoad / (float64(d.NumSMs) * cycles)
	if m.SMEfficiency > 1 {
		m.SMEfficiency = 1
	}

	// Achieved occupancy: time-weighted active warps per SM over capacity.
	// The block-cost accounting serialises co-resident blocks, so scale by
	// the residency factor (R blocks share the SM concurrently), then cap by
	// the residency limit.
	occ := busyWeighted * float64(residentBlocks) /
		(cycles * float64(d.NumSMs) * float64(d.MaxWarpsPerSM))
	residencyCap := residentWarps / float64(d.MaxWarpsPerSM)
	occ = math.Min(occ, residencyCap)
	m.Occupancy = math.Min(occ, 1)
	return m
}

// LowerBound returns a number of cycles that Simulate(d, k, opts...) never
// reports fewer of, at the price of pass 2's work accounting alone: no trace
// is generated and no cache simulated. Every block is costed as Simulate
// costs it, but with each load at the best access latency
// min(L1Latency, L2Latency, DRAMLatency) — Simulate's average access latency
// is a convex combination of the three, so at least their minimum, and no
// other term of a block's cost reads the hit rates. The makespan of any
// assignment of those costs to SMs is at least their mean per SM and at least
// the largest one, and Simulate's bandwidth floors can only raise its result.
// A tuner simulates a candidate only while this bound does not exceed the
// best cycles found so far (schedule.Best).
func LowerBound(d *Device, k Kernel, opts ...Option) float64 {
	if k.NumBlocks() == 0 {
		return d.LaunchOverheadCycles
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	pass2 := sampleWork(d, k, resolve(opts), ws)
	latency := min(d.L1Latency, d.L2Latency, d.DRAMLatency)
	var sum, most float64
	for _, w := range pass2.works {
		cost := blockCost(d, w, latency, pass2.hiding)
		sum += cost
		most = max(most, cost)
	}
	return max(sum/float64(d.NumSMs), most)*pass2.scale + d.LaunchOverheadCycles
}

// workSample is pass 2's input, shared by Simulate and LowerBound: the work of
// the blocks it accounts for and the residency that work implies.
type workSample struct {
	works []BlockWork // per accounted block, in the workspace
	total BlockWork   // their sum
	scale float64     // launched blocks per accounted block
	// residentBlocks run concurrently on one SM; hiding is the resident
	// warps that hide latency, in [1, d.HidingWarps].
	residentBlocks int
	hiding         float64
}

// sampleWork collects the BlockWork of every block of k (or of a stride
// sample of cfg.maxWorkBlocks, scaled back by workSample.scale) into ws and
// derives the residency from it. Residency and latency hiding are computed
// from blocks that actually have work: an over-tiled launch's empty blocks
// retire immediately and hide nothing.
func sampleWork(d *Device, k Kernel, cfg simConfig, ws *workspace) workSample {
	numBlocks := k.NumBlocks()
	workBlocks := numBlocks
	workStride := 1
	if numBlocks > cfg.maxWorkBlocks {
		workBlocks = cfg.maxWorkBlocks
		workStride = numBlocks / workBlocks
	}
	s := workSample{works: ws.blockWork(workBlocks), scale: float64(numBlocks) / float64(workBlocks)}
	activeBlocks := 0
	for i := range s.works {
		s.works[i] = k.BlockWork(i * workStride)
		s.total.Add(s.works[i])
		if s.works[i].ActiveWarps > 0 {
			activeBlocks++
		}
	}
	launchedActive := int(float64(activeBlocks) * s.scale)
	if launchedActive < 1 {
		launchedActive = 1
	}

	// Resident blocks per SM: limited by the block slots and the warp budget;
	// cannot exceed the active blocks that exist per SM on average.
	warpsPerBlock := k.WarpsPerBlock()
	s.residentBlocks = d.MaxBlocksPerSM
	if byWarps := d.MaxWarpsPerSM / warpsPerBlock; byWarps < s.residentBlocks {
		s.residentBlocks = byWarps
	}
	if s.residentBlocks < 1 {
		s.residentBlocks = 1
	}
	avgBlocksPerSM := (launchedActive + d.NumSMs - 1) / d.NumSMs
	if avgBlocksPerSM < s.residentBlocks {
		s.residentBlocks = avgBlocksPerSM
	}
	s.hiding = float64(s.residentBlocks * warpsPerBlock)
	if s.hiding > d.HidingWarps {
		s.hiding = d.HidingWarps
	}
	if s.hiding < 1 {
		s.hiding = 1
	}
	return s
}

// blockCost is the cycles block work w occupies its SM for: the max of its
// issue demand, its L1 throughput demand, its exposed latency with loads at
// accessLatency cycles and hiding warps covering it, and its longest warp's
// serial stream. It grows with accessLatency, which is all LowerBound relies
// on.
func blockCost(d *Device, w BlockWork, accessLatency, hiding float64) float64 {
	l1req := w.L1Requests
	if l1req < w.Transactions {
		l1req = w.Transactions
	}
	issue := w.Insts / d.IssuePerSM
	l1t := l1req / d.L1PerSM
	// Exposed latency is charged per load instruction — the misses of one
	// warp load overlap with each other — with replay throughput in the l1t
	// term. Kernels that do not report MemInsts fall back to
	// per-transaction charging.
	memInsts := w.MemInsts
	if memInsts == 0 {
		memInsts = w.Transactions
	}
	latency := (w.Insts*InstLatencyCycles +
		memInsts*accessLatency +
		w.SerialRounds*d.L2Latency) / hiding
	cost := issue
	if l1t > cost {
		cost = l1t
	}
	if latency > cost {
		cost = latency
	}
	// Divergence tail: the block cannot finish before its longest warp's
	// serial instruction stream drains.
	if w.MaxWarpCycles > cost {
		cost = w.MaxWarpCycles
	}
	return cost
}

// smHeap is a min-heap of SM loads for greedy list scheduling.
type smHeap []smLoad

type smLoad struct {
	id   int
	load float64
}

func makeSMHeap(n int) smHeap {
	h := make(smHeap, n)
	for i := range h {
		h[i].id = i
	}
	return h
}

func (h smHeap) Len() int            { return len(h) }
func (h smHeap) Less(i, j int) bool  { return h[i].load < h[j].load }
func (h smHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *smHeap) Push(x interface{}) { *h = append(*h, x.(smLoad)) }
func (h *smHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
