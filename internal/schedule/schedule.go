// Package schedule enumerates uGrapher's parallelization-strategy space and
// provides the grid-search tuner the paper validates its predictor against
// (§5.4, Fig. 12). The full space — 4 basic strategies x grouping x tiling
// parameters — is explored by simulating each candidate kernel and ranking
// by predicted cycles.
package schedule

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
)

// GroupValues and TileValues are the power-of-two knob settings that appear
// throughout the paper's Table 9 and Fig. 18.
var (
	GroupValues = []int{1, 2, 4, 8, 16, 32, 64}
	TileValues  = []int{1, 2, 4, 8, 16, 32, 64}
)

// Space returns the full candidate schedule list: 4 strategies x 7 grouping
// x 7 tiling values = 196 schedules.
func Space() []core.Schedule {
	out := make([]core.Schedule, 0, len(core.Strategies)*len(GroupValues)*len(TileValues))
	for _, s := range core.Strategies {
		for _, g := range GroupValues {
			for _, t := range TileValues {
				out = append(out, core.Schedule{Strategy: s, Group: g, Tile: t})
			}
		}
	}
	return out
}

// Task identifies one tuning problem: a graph operator on a dataset with a
// feature width, on a device.
type Task struct {
	Graph *graph.Graph
	Op    ops.OpInfo
	// Feat is the output feature width; ACols/BCols the operand widths
	// (1 = broadcast scalar, 0 = absent).
	Feat, ACols, BCols int
	Device             *gpu.Device
}

// Widths fills ACols/BCols from the operator's natural shape.
func (t Task) Widths(widthOneB bool) Task {
	t.Feat, t.ACols, t.BCols = core.OperandWidths(t.Op, t.Feat, widthOneB)
	return t
}

// Candidate is one evaluated schedule.
type Candidate struct {
	Schedule core.Schedule
	Metrics  gpu.Metrics
}

// Evaluate simulates a single schedule for the task. The plan is compiled
// (and statically verified) on every call; the simulation is looked up in the
// process's memo first (memo.go), since an experiment sweep or a tuner asks
// for the same (graph, op, widths, schedule, device, fidelity) many times.
func Evaluate(t Task, s core.Schedule, opts ...gpu.Option) (Candidate, error) {
	p, err := core.Compile(t.Op, s)
	if err != nil {
		return Candidate{}, err
	}
	key := evalKey{
		graph: t.Graph.Fingerprint(), vertices: t.Graph.NumVertices(), edges: t.Graph.NumEdges(),
		op: t.Op, feat: t.Feat, aCols: t.ACols, bCols: t.BCols, sched: s,
		dev: *t.Device, sim: gpu.OptionsKey(opts...),
	}
	m, ok := evalMemo.get(key)
	if !ok {
		m = gpu.Simulate(t.Device, p.Kernel(t.Graph, t.Feat, t.ACols, t.BCols, t.Device), opts...)
		evalMemo.put(key, m)
	}
	return Candidate{Schedule: s, Metrics: m}, nil
}

// GridSearch evaluates every schedule in space (default: Space()) and
// returns the candidates ranked by ascending cycles, equal cycles in space
// order. Schedules that fail to compile for the operator are skipped.
//
// The candidates are independent pure simulations, evaluated on
// runtime.GOMAXPROCS(0) goroutines (parallelFor). Each result lands in its
// candidate's slot and the failures are dropped in space order, so the list
// ranked here is the one a serial loop builds and the result is identical
// field for field at any GOMAXPROCS.
func GridSearch(t Task, space []core.Schedule, opts ...gpu.Option) []Candidate {
	if space == nil {
		space = Space()
	}
	slots := make([]Candidate, len(space))
	ok := make([]bool, len(space))
	parallelFor(len(space), func(i int) {
		c, err := Evaluate(t, space[i], opts...)
		slots[i], ok[i] = c, err == nil
	})
	out := slots[:0]
	for i, c := range slots {
		if ok[i] {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Metrics.Cycles < out[j].Metrics.Cycles })
	return out
}

// boundSlack is the relative margin by which a candidate's lower bound must
// exceed the best cycles found before Best skips it: the bound and the
// simulation sum their block costs in different orders, and rounding must
// never cut the winner.
const boundSlack = 1e-9

// Best returns GridSearch(t, space, opts...)[0] — the fewest cycles, the
// earliest in space among equals — or false if no schedule compiles.
//
// It is a branch-and-bound search rather than a ranking: every compilable
// candidate is bounded by gpu.LowerBound, the candidates are visited in
// ascending bound order on runtime.GOMAXPROCS(0) goroutines, and one is
// simulated (Evaluate) only while its bound does not exceed the best cycles
// found so far. The best only falls, so every candidate whose bound is at
// most the final best is simulated, ties included, and the winner does not
// depend on how the goroutines interleave.
func Best(t Task, space []core.Schedule, opts ...gpu.Option) (Candidate, bool) {
	if space == nil {
		space = Space()
	}
	bounds := make([]float64, len(space))
	ok := make([]bool, len(space))
	parallelFor(len(space), func(i int) {
		p, err := core.Compile(t.Op, space[i])
		if err != nil {
			return
		}
		bounds[i] = gpu.LowerBound(t.Device, p.Kernel(t.Graph, t.Feat, t.ACols, t.BCols, t.Device), opts...)
		ok[i] = true
	})
	order := make([]int, 0, len(space))
	for i := range space {
		if ok[i] {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return bounds[order[a]] < bounds[order[b]] })

	var mu sync.Mutex
	var best Candidate
	bestAt := -1
	parallelFor(len(order), func(j int) {
		i := order[j]
		mu.Lock()
		cut := bestAt >= 0 && bounds[i] > best.Metrics.Cycles*(1+boundSlack)
		mu.Unlock()
		if cut {
			return
		}
		c, err := Evaluate(t, space[i], opts...)
		if err != nil {
			return
		}
		mu.Lock()
		if bestAt < 0 || c.Metrics.Cycles < best.Metrics.Cycles ||
			c.Metrics.Cycles == best.Metrics.Cycles && i < bestAt {
			best, bestAt = c, i
		}
		mu.Unlock()
	})
	return best, bestAt >= 0
}

// parallelFor calls f(i) for every i in [0, n) on up to runtime.GOMAXPROCS(0)
// goroutines, the caller's included, that claim indices in ascending order
// from a shared cursor, and returns when every call has.
func parallelFor(n int, f func(i int)) {
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(i)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// PrunedSpace trims knob values that cannot help the task: grouping beyond
// items/32 (launch would collapse below one wave) and tiling beyond the
// feature chunk count (all extra units idle). This keeps grid search
// practical on big graphs without excluding any winner the full space would
// find — over-tiled/over-grouped schedules are strictly dominated.
func PrunedSpace(t Task) []core.Schedule {
	chunks := (t.Feat + 31) / 32
	if chunks < 1 {
		chunks = 1
	}
	maxTile := 1
	for _, v := range TileValues {
		if v <= chunks {
			maxTile = v
		}
	}
	var out []core.Schedule
	for _, s := range core.Strategies {
		items := t.Graph.NumVertices()
		if !s.VertexParallel() {
			items = t.Graph.NumEdges()
		}
		// Stop growing the group once the launch collapses below one block
		// per SM; coarser groupings are strictly dominated.
		for _, g := range GroupValues {
			units := (items + g - 1) / g
			if g > 1 && units < t.Device.NumSMs {
				break
			}
			for _, ti := range TileValues {
				if ti > maxTile {
					break
				}
				out = append(out, core.Schedule{Strategy: s, Group: g, Tile: ti})
			}
		}
	}
	return out
}

// cacheKey memoises tuning results for repeated (graph, op, feat, device)
// lookups within a process — the paper's point that tuning happens once
// before inference.
type cacheKey struct {
	g      *graph.Graph
	opName string
	edgeOp ops.EdgeOp
	gather ops.GatherOp
	feat   int
	aCols  int
	bCols  int
	dev    string
}

// Tuner performs cached grid search.
type Tuner struct {
	mu    sync.Mutex
	cache map[cacheKey]Candidate
	// Opts are forwarded to every simulation.
	Opts []gpu.Option
}

// NewTuner returns an empty cached tuner.
func NewTuner(opts ...gpu.Option) *Tuner {
	return &Tuner{cache: make(map[cacheKey]Candidate), Opts: opts}
}

// Tune returns the best schedule for the task, using the pruned space, with
// memoisation.
func (tu *Tuner) Tune(t Task) (Candidate, bool) {
	key := cacheKey{
		g: t.Graph, opName: t.Op.Name, edgeOp: t.Op.EdgeOp, gather: t.Op.GatherOp,
		feat: t.Feat, aCols: t.ACols, bCols: t.BCols, dev: t.Device.Name,
	}
	tu.mu.Lock()
	if c, ok := tu.cache[key]; ok {
		tu.mu.Unlock()
		return c, true
	}
	tu.mu.Unlock()
	best, ok := Best(t, PrunedSpace(t), tu.Opts...)
	if !ok {
		return Candidate{}, false
	}
	tu.mu.Lock()
	tu.cache[key] = best
	tu.mu.Unlock()
	return best, true
}
