package schedule

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
)

// BasicSpace returns only the four basic strategies (Group=1, Tile=1), the
// configuration Fig. 7 and Fig. 17 contrast against the tuned optimum.
func BasicSpace() []core.Schedule {
	out := make([]core.Schedule, len(core.Strategies))
	for i, s := range core.Strategies {
		out[i] = core.Schedule{Strategy: s, Group: 1, Tile: 1}
	}
	return out
}

func TestSpaceSize(t *testing.T) {
	if got := len(Space()); got != 4*7*7 {
		t.Fatalf("space size = %d, want 196", got)
	}
	if got := len(BasicSpace()); got != 4 {
		t.Fatalf("basic space = %d", got)
	}
	for _, s := range Space() {
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid schedule in space: %v", err)
		}
	}
}

func smallTask(t *testing.T, skewed bool) Task {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	b := graph.NewBuilder(2000)
	for i := 0; i < 20000; i++ {
		src := int32(rng.Intn(2000))
		dst := int32(rng.Intn(2000))
		if skewed && rng.Float64() < 0.7 {
			dst = int32(rng.Intn(20))
		}
		b.AddEdge(src, dst)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return Task{Graph: g, Op: ops.AggrSum, Feat: 32, ACols: 32, Device: gpu.V100()}
}

func TestGridSearchSorted(t *testing.T) {
	cands := GridSearch(smallTask(t, false), BasicSpace())
	if len(cands) != 4 {
		t.Fatalf("got %d candidates", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Metrics.Cycles > cands[i].Metrics.Cycles {
			t.Fatal("not sorted by cycles")
		}
	}
}

func TestBest(t *testing.T) {
	c, ok := Best(smallTask(t, false), BasicSpace())
	if !ok {
		t.Fatal("no best found")
	}
	if c.Metrics.Cycles <= 0 {
		t.Fatal("best has no cost")
	}
	if _, ok := Best(smallTask(t, false), []core.Schedule{}); ok {
		t.Fatal("empty space should find nothing")
	}
}

func TestGridSearchSkipsInvalid(t *testing.T) {
	task := smallTask(t, false)
	space := []core.Schedule{{Strategy: core.Strategy(9), Group: 1, Tile: 1}, core.DefaultSchedule}
	cands := GridSearch(task, space)
	if len(cands) != 1 {
		t.Fatalf("invalid schedule should be skipped, got %d candidates", len(cands))
	}
}

func TestPrunedSpaceSubset(t *testing.T) {
	task := smallTask(t, false)
	pruned := PrunedSpace(task)
	if len(pruned) == 0 || len(pruned) > len(Space()) {
		t.Fatalf("pruned size %d out of range", len(pruned))
	}
	// F=32 => 1 chunk => tiling beyond 1 pruned.
	for _, s := range pruned {
		if s.Tile > 1 {
			t.Fatalf("tile %d should be pruned for F=32", s.Tile)
		}
	}
	// Larger features admit more tiling.
	task.Feat, task.ACols = 256, 256
	sawTile := 0
	for _, s := range PrunedSpace(task) {
		if s.Tile > sawTile {
			sawTile = s.Tile
		}
	}
	if sawTile < 8 {
		t.Fatalf("expected tiling up to 8 for F=256, saw max %d", sawTile)
	}
}

// TestPrunedMatchesFullOnSmallTask: pruning must not lose the winner.
func TestPrunedMatchesFullOnSmallTask(t *testing.T) {
	task := smallTask(t, true)
	full, _ := Best(task, Space())
	pruned, _ := Best(task, PrunedSpace(task))
	// Allow a small tolerance: pruned may pick an equal-cost sibling.
	if pruned.Metrics.Cycles > full.Metrics.Cycles*1.05 {
		t.Fatalf("pruned winner %v (%v cycles) much worse than full winner %v (%v cycles)",
			pruned.Schedule, pruned.Metrics.Cycles, full.Schedule, full.Metrics.Cycles)
	}
}

func TestTunerCaches(t *testing.T) {
	task := smallTask(t, false)
	tu := NewTuner()
	c1, ok := tu.Tune(task)
	if !ok {
		t.Fatal("tune failed")
	}
	c2, _ := tu.Tune(task)
	if c1.Schedule != c2.Schedule || c1.Metrics.Cycles != c2.Metrics.Cycles {
		t.Fatal("cache returned different result")
	}
}

func TestSpeedup(t *testing.T) {
	task := smallTask(t, true)
	best, _ := Best(task, PrunedSpace(task))
	baseline, err := Evaluate(task, core.Schedule{Strategy: core.ThreadVertex, Group: 1, Tile: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := baseline.Metrics.Cycles / best.Metrics.Cycles; s < 1 {
		t.Fatalf("tuned schedule should not be slower than a fixed baseline, speedup=%v", s)
	}
}

// TestOptimalStrategyVaries is the Fig. 7 sanity check: across datasets with
// different shapes, the winning basic strategy is not constant.
func TestOptimalStrategyVaries(t *testing.T) {
	winners := map[core.Strategy]bool{}
	for _, abbr := range []string{"CO", "PR", "AR"} {
		g, _, err := datasets.Load(abbr)
		if err != nil {
			t.Fatal(err)
		}
		for _, feat := range []int{8, 64} {
			task := Task{Graph: g, Op: ops.AggrSum, Feat: feat, ACols: feat, Device: gpu.V100()}
			best, ok := Best(task, BasicSpace(), gpu.WithMaxSampledBlocks(64))
			if !ok {
				t.Fatal("no winner")
			}
			winners[best.Schedule.Strategy] = true
		}
	}
	if len(winners) < 2 {
		t.Errorf("expected the optimal basic strategy to vary across datasets/feature sizes, got %v", winners)
	}
}

// TestSkewPrefersEdgeParallel: on a heavily skewed graph, vertex-parallel
// mapping suffers divergence/imbalance, so an edge-mapped strategy should
// win (the paper's Fig. 2/3 motivation).
func TestSkewPrefersEdgeParallel(t *testing.T) {
	best, ok := Best(smallTask(t, true), BasicSpace())
	if !ok {
		t.Fatal("no winner")
	}
	if best.Schedule.Strategy.VertexParallel() {
		t.Errorf("skewed graph picked %v; want an edge-parallel strategy", best.Schedule)
	}
}

func TestTaskWidths(t *testing.T) {
	task := smallTask(t, false)
	task.Op = ops.WeightedAggrSum
	task.Feat = 64
	got := task.Widths(true)
	if got.Feat != 64 || got.ACols != 64 || got.BCols != 1 {
		t.Errorf("Widths = (%d,%d,%d), want (64,64,1)", got.Feat, got.ACols, got.BCols)
	}
	task.Op = ops.AggrSum
	got = task.Widths(false)
	if got.ACols != 64 || got.BCols != 0 {
		t.Errorf("unary Widths = (%d,%d)", got.ACols, got.BCols)
	}
}

func TestEvaluateInvalidSchedule(t *testing.T) {
	task := smallTask(t, false)
	if _, err := Evaluate(task, core.Schedule{Strategy: core.Strategy(9), Group: 1, Tile: 1}); err == nil {
		t.Error("invalid schedule should error")
	}
}

func TestGridSearchNilSpaceUsesFull(t *testing.T) {
	task := smallTask(t, false)
	cands := GridSearch(task, nil, gpu.WithMaxSampledBlocks(8))
	if len(cands) != len(Space()) {
		t.Errorf("nil space should use the full space: %d vs %d", len(cands), len(Space()))
	}
}

// serialSearch is GridSearch as a plain loop: every schedule evaluated in
// space order on the caller, failures skipped, the survivors ranked the same
// way (equal cycles in space order). It simulates through core.Estimate,
// Evaluate's body without the memo, so the result it is compared with never
// came from the memo it filled.
func serialSearch(t Task, space []core.Schedule, opts ...gpu.Option) []Candidate {
	var out []Candidate
	for _, s := range space {
		m, err := core.Estimate(t.Graph, t.Op, t.Feat, t.ACols, t.BCols, s, t.Device, opts...)
		if err == nil {
			out = append(out, Candidate{Schedule: s, Metrics: m})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Metrics.Cycles < out[j].Metrics.Cycles })
	return out
}

// sameCandidates reports the first difference between two candidate lists,
// field for field, or "" when they are identical.
func sameCandidates(got, want []Candidate) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("rank %d: %+v\nwant %+v", i, got[i], want[i])
		}
	}
	return ""
}

// gridTask is one search of the equivalence tests.
type gridTask struct {
	name  string
	task  Task
	space []core.Schedule
}

// gridTasks are the tasks the equivalence tests search: GCN's weighted
// gather on CO and the unweighted one on PR, each over the pruned space and
// the full one (which adds over-grouped and over-tiled schedules of all four
// strategies; -short, which make race runs under, keeps the pruned one). An
// invalid schedule rides along in every space so the dropped-failure order is
// covered too.
func gridTasks(t *testing.T) []gridTask {
	t.Helper()
	var out []gridTask
	for abbr, op := range map[string]ops.OpInfo{"CO": ops.WeightedAggrSum, "PR": ops.AggrSum} {
		g, _, err := datasets.Load(abbr)
		if err != nil {
			t.Fatal(err)
		}
		task := Task{Graph: g, Op: op, Feat: 64, Device: gpu.V100()}.Widths(true)
		invalid := core.Schedule{Strategy: core.Strategy(9), Group: 1, Tile: 1}
		spaces := map[string][]core.Schedule{"pruned": PrunedSpace(task), "full": Space()}
		if testing.Short() {
			delete(spaces, "full")
		}
		for name, space := range spaces {
			space = append([]core.Schedule{invalid}, space...)
			out = append(out, gridTask{abbr + "/" + op.Name + "/" + name, task, space})
		}
	}
	return out
}

// gridOpts keeps the equivalence tests' simulations cheap: the property is
// the same at any trace sample size.
var gridOpts = []gpu.Option{gpu.WithMaxSampledBlocks(8)}

// TestGridSearchMatchesSerial: the concurrent search returns exactly the
// serial loop's list — same candidates, same order, every Metrics field
// equal — with one goroutine and with four.
func TestGridSearchMatchesSerial(t *testing.T) {
	for _, tc := range gridTasks(t) {
		want := serialSearch(tc.task, tc.space, gridOpts...)
		strategies := map[core.Strategy]bool{}
		for _, c := range want {
			strategies[c.Schedule.Strategy] = true
		}
		if len(strategies) != len(core.Strategies) {
			t.Fatalf("%s: the space covers %d strategies, want all %d", tc.name, len(strategies), len(core.Strategies))
		}
		for _, procs := range []int{1, 4} {
			resetMemo()
			prev := runtime.GOMAXPROCS(procs)
			got := GridSearch(tc.task, tc.space, gridOpts...)
			runtime.GOMAXPROCS(prev)
			if d := sameCandidates(got, want); d != "" {
				t.Errorf("%s at GOMAXPROCS=%d: %s", tc.name, procs, d)
			}
		}
	}
}

// TestGridSearchConcurrentCallers: eight callers searching at once — the way
// internal/bench's parallel experiments and concurrent tuned compiles use
// it — each get the serial result. Run under -race by make race.
func TestGridSearchConcurrentCallers(t *testing.T) {
	g, _, err := datasets.Load("CO")
	if err != nil {
		t.Fatal(err)
	}
	tasks := []Task{
		Task{Graph: g, Op: ops.WeightedAggrSum, Feat: 32, Device: gpu.V100()}.Widths(true),
		Task{Graph: g, Op: ops.AggrSum, Feat: 16, Device: gpu.A100()}.Widths(false),
	}
	want := make([][]Candidate, len(tasks))
	for i, task := range tasks {
		want[i] = serialSearch(task, PrunedSpace(task), gridOpts...)
	}
	resetMemo()
	const callers = 8
	got := make([][]Candidate, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := tasks[c%len(tasks)]
			got[c] = GridSearch(task, PrunedSpace(task), gridOpts...)
		}()
	}
	wg.Wait()
	for c := range got {
		if d := sameCandidates(got[c], want[c%len(tasks)]); d != "" {
			t.Errorf("caller %d: %s", c, d)
		}
	}
}
