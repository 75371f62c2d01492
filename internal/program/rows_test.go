package program_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// The row-subset suite lives outside package program because its programs
// are the six models' (internal/models imports program); export_test.go lends
// it the forced row mode and the arena poison.

const (
	rowsFeat    = 16
	rowsClasses = 8
)

func loadGraph(t testing.TB, abbr string) *graph.Graph {
	t.Helper()
	g, _, err := datasets.Load(abbr)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func features(g *graph.Graph, seed int64) *tensor.Dense {
	x := tensor.NewDense(g.NumVertices(), rowsFeat)
	x.FillRandom(rand.New(rand.NewSource(seed)), 1)
	return x
}

// hostProgram compiles m the way the daemon and `ugrapher -model` do, on a
// parallel backend of the given worker count.
func hostProgram(t testing.TB, m models.Model, g *graph.Graph, workers int) *program.CompiledProgram {
	t.Helper()
	cp, err := models.CompileModel(m, g, rowsFeat, rowsClasses, models.NewHostEngine(core.NewParallelBackend(workers)))
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// fullWork is the rows plus in-edges the graph steps of a full pass of cp
// process: what the row-or-full rule measures a row run against.
func fullWork(cp *program.CompiledProgram, g *graph.Graph) float64 {
	graphSteps := 0
	for _, sm := range cp.StepModes() {
		if sm.Op == "graph" {
			graphSteps++
		}
	}
	return float64(graphSteps * (g.NumVertices() + g.NumEdges()))
}

// hub is the vertex with the most in-edges.
func hub(g *graph.Graph) int32 {
	best := int32(0)
	for v := int32(1); v < int32(g.NumVertices()); v++ {
		if g.InDegree(v) > g.InDegree(best) {
			best = v
		}
	}
	return best
}

type rowCase struct {
	name string
	rows []int32
}

// rowCases are the row sets of the matrix: a row, a request's worth, a batch's
// worth, the worst row, every row, and the two ways a caller's list is not a
// set.
func rowCases(g *graph.Graph, rng *rand.Rand) []rowCase {
	numV := g.NumVertices()
	random := func(n int) []int32 {
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(rng.Intn(numV))
		}
		return rows
	}
	all := make([]int32, numV)
	for i := range all {
		all[i] = int32(i)
	}
	four := random(4)
	return []rowCase{
		{"1", random(1)},
		{"4", four},
		{"64", random(64)},
		{"hub", []int32{hub(g)}},
		{"all", all},
		{"duplicates", []int32{four[0], four[1], four[0], four[0], four[1]}},
		{"unsorted", []int32{int32(numV - 1), 0, int32(numV / 2), 1, int32(numV/2) - 1}},
	}
}

// sameRows fails unless every requested row of got holds exactly the bits of
// want's.
func sameRows(t *testing.T, label string, got, want *tensor.Dense, rows []int32) {
	t.Helper()
	for _, r := range rows {
		g, w := got.RowRange(int(r), int(r)+1), want.RowRange(int(r), int(r)+1)
		if d := g.BitDiff(&w); d >= 0 {
			t.Fatalf("%s: row %d differs from the full pass at column %d: %v vs %v", label, r, d, g.Data, w.Data)
		}
	}
}

// TestRunRowsBitIdentical is the contract: for every model, graph, worker
// count and row set, the requested rows of a row run — chosen by the rule and
// forced — are the one-worker full pass's bits, and so is every worker
// count's full pass. The arena is poisoned before every forced run, so
// a step that read a row this run did not write (a stale row of an earlier run
// in a shared slot, a closure one row short) cannot agree by luck; and a full
// Run after the row runs is the full pass again.
func TestRunRowsBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, abbr := range []string{"CO", "PR", "AR"} {
		if abbr == "AR" && (testing.Short() || raceBuild) {
			continue
		}
		g := loadGraph(t, abbr)
		x := features(g, 42)
		cases := rowCases(g, rand.New(rand.NewSource(7)))
		for _, m := range models.All() {
			var want *tensor.Dense
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s/%s/workers=%d", abbr, m.Name(), workers)
				cp := hostProgram(t, m, g, workers)
				if ok, why := cp.RowsCapable(); !ok {
					t.Fatalf("%s: the host program is not rows-capable: %s", label, why)
				}
				out, err := cp.Run(x)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = out.Clone() // the pass on one worker
				} else if d := out.BitDiff(want); d >= 0 {
					t.Fatalf("%s: the full pass differs from the one-worker one at element %d", label, d)
				}
				for _, rc := range cases {
					got, info, err := cp.RunRows(ctx, x, rc.rows)
					if err != nil {
						t.Fatalf("%s/%s: %v", label, rc.name, err)
					}
					sameRows(t, label+"/"+rc.name+"/"+info.Mode(), got, want, rc.rows)

					cp.PoisonArena()
					got, info, err = cp.RunRowsForced(ctx, x, rc.rows)
					if err != nil {
						t.Fatalf("%s/%s forced: %v", label, rc.name, err)
					}
					if !info.Rows || info.RowsIn == 0 || info.RowsOut > len(rc.rows) {
						t.Fatalf("%s/%s forced: answered %+v", label, rc.name, info)
					}
					sameRows(t, label+"/"+rc.name+"/forced", got, want, rc.rows)
				}
				if out, err = cp.Run(x); err != nil {
					t.Fatal(err)
				}
				if d := out.BitDiff(want); d >= 0 {
					t.Fatalf("%s: a full Run after row runs differs from the first at element %d", label, d)
				}
			}
		}
	}
}

// TestRunRowsIncapableProgramsTakeFullPass: a program one of whose steps has
// no row form — the reference interpreter's kernels, the edge-output kernels a
// pair-only engine leaves in GAT — says which step declined and answers
// RunRows with the full pass's rows.
func TestRunRowsIncapableProgramsTakeFullPass(t *testing.T) {
	g := loadGraph(t, "CO")
	x := features(g, 42)
	pairOnly := models.NewHostEngine(core.NewParallelBackend(2))
	pairOnly.PairFusionOnly = true
	for _, tc := range []struct {
		name string
		eng  models.Engine
	}{
		{"reference", models.NewHostEngine(core.ReferenceBackend())},
		{"pair-only", pairOnly},
	} {
		cp, err := models.CompileModel(models.NewGAT(), g, rowsFeat, rowsClasses, tc.eng)
		if err != nil {
			t.Fatal(err)
		}
		ok, why := cp.RowsCapable()
		if ok || why == "" {
			t.Fatalf("%s: rows-capable (%q), want a declining step", tc.name, why)
		}
		out, err := cp.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		want := out.Clone()
		rows := []int32{5, 3, 5, int32(g.NumVertices() - 1)}
		got, info, err := cp.RunRowsForced(context.Background(), x, rows)
		if err != nil {
			t.Fatal(err)
		}
		if info.Rows || info.RowsIn != g.NumVertices() {
			t.Errorf("%s: answered %+v, want the full pass", tc.name, info)
		}
		if d := got.BitDiff(want); d >= 0 {
			t.Errorf("%s: full-pass answer differs from Run at element %d", tc.name, d)
		}
	}
}

// TestRunRowsBehindTheLadder: the daemon's program — the flat backend behind
// a resilient ladder — is rows-capable, the ladder's kernels passing the row
// set to their primaries.
func TestRunRowsBehindTheLadder(t *testing.T) {
	g := loadGraph(t, "CO")
	x := features(g, 42)
	for _, m := range models.All() {
		rb := core.NewResilientBackend(core.NewParallelBackend(2))
		cp, err := models.CompileModel(m, g, rowsFeat, rowsClasses, models.NewHostEngine(rb))
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := cp.RowsCapable(); !ok {
			t.Fatalf("%s behind the ladder: %s", m.Name(), why)
		}
		out, err := cp.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		want := out.Clone()
		rows := []int32{17, 4, 2000, 4}
		cp.PoisonArena()
		got, info, err := cp.RunRowsForced(context.Background(), x, rows)
		if err != nil || !info.Rows {
			t.Fatalf("%s: %+v, %v", m.Name(), info, err)
		}
		sameRows(t, m.Name(), got, want, rows)
	}
}

// TestRunRowsZeroAllocs: once a row set has been run, running it again
// allocates nothing — the needed-row sets, their stamps and the kernels' slabs
// are all reused — for the walk that runs rows and for the walk that abandons
// to the full pass alike, on one worker and on the pool, and with telemetry on
// under a request trace (run, step and kernel spans into pre-sized buffers).
func TestRunRowsZeroAllocs(t *testing.T) {
	g := loadGraph(t, "CO")
	x := features(g, 42)
	rng := rand.New(rand.NewSource(3))
	small := make([]int32, 4)
	for i := range small {
		small[i] = int32(rng.Intn(g.NumVertices()))
	}
	all := make([]int32, g.NumVertices())
	for i := range all {
		all[i] = int32(i)
	}
	measure := func(t *testing.T, ctx context.Context, what string) {
		for _, workers := range []int{1, 2} {
			for _, m := range models.All() {
				cp := hostProgram(t, m, g, workers)
				for _, tc := range []struct {
					name string
					rows []int32
					mode string
				}{{"4 rows", small, "rows"}, {"all rows", all, "full"}} {
					run := func() {
						if _, info, err := cp.RunRows(ctx, x, tc.rows); err != nil || info.Mode() != tc.mode {
							t.Fatalf("%s, %s: answered %+v, %v", m.Name(), tc.name, info, err)
						}
					}
					run() // the first call sizes the scratch
					if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
						t.Errorf("%s, %s, workers=%d, %s: steady-state RunRows allocates %.1f objects/run, want 0", m.Name(), tc.name, workers, what, allocs)
					}
				}
			}
		}
	}
	measure(t, context.Background(), "telemetry off")

	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	telemetry.SetEnabled(true)
	telemetry.Default().SetMaxEvents(1 << 12) // pre-sized: past it events are counted, not appended
	traced := telemetry.ContextWithTrace(context.Background(), telemetry.NewTraceState(0, 0, 64))
	measure(t, traced, "traced")
}

// TestRunRowsRejectsBadRowSets: an empty row set and a row that is not a
// vertex are typed errors, and leave the program usable.
func TestRunRowsRejectsBadRowSets(t *testing.T) {
	ctx := context.Background()
	g := loadGraph(t, "CO")
	x := features(g, 42)
	cp := hostProgram(t, models.NewGCN(), g, 1)
	if _, _, err := cp.RunRows(ctx, x, nil); !errors.Is(err, program.ErrEmptyRowSet) {
		t.Errorf("empty row set: %v, want ErrEmptyRowSet", err)
	}
	for _, bad := range []int32{-1, int32(g.NumVertices())} {
		var re *program.RowRangeError
		if _, _, err := cp.RunRows(ctx, x, []int32{0, bad}); !errors.As(err, &re) || re.Row != bad || re.Vertices != g.NumVertices() {
			t.Errorf("row %d: %v, want a *RowRangeError naming it", bad, err)
		}
	}
	if _, _, err := cp.RunRows(ctx, tensor.NewDense(3, rowsFeat), []int32{0}); err == nil {
		t.Error("a 3-row input was accepted")
	}
	if _, info, err := cp.RunRows(ctx, x, []int32{0}); err != nil || !info.Rows {
		t.Errorf("after the rejections: %+v, %v", info, err)
	}
}

// TestRunRowsNumericGuardScansWrittenRowsOnly: with -check-numerics on, a row
// run over an arena full of stale NaN succeeds — the guard looks at the rows
// the run wrote — and a NaN poked into a row it did write is still caught.
func TestRunRowsNumericGuardScansWrittenRowsOnly(t *testing.T) {
	core.SetCheckNumerics(true)
	t.Cleanup(func() { core.SetCheckNumerics(false); faultinject.Reset() })
	ctx := context.Background()
	g := loadGraph(t, "CO")
	x := features(g, 42)
	for _, m := range []models.Model{models.NewGCN(), models.NewGAT()} {
		cp := hostProgram(t, m, g, 2)
		cp.PoisonArena()
		if _, _, err := cp.RunRowsForced(ctx, x, []int32{9, 1200}); err != nil {
			t.Fatalf("%s over a poisoned arena: %v", m.Name(), err)
		}
		faultinject.Arm(faultinject.NaNPoke, faultinject.Spec{Every: 1, Limit: 1})
		var ne *core.NumericError
		if _, _, err := cp.RunRowsForced(ctx, x, []int32{9, 1200}); !errors.As(err, &ne) {
			t.Fatalf("%s with a NaN poked into a written row: %v, want a *NumericError", m.Name(), err)
		}
		faultinject.Reset()
	}
}

// TestRunRowsCrossover: a closure past the crossover is answered by the full
// pass with the same rows, after a walk that stopped within its budget; one
// under it runs rows. On CO two hops from four rows reach a few dozen and any
// model's closure of every third row is the graph; on AR (32 in-edges a row,
// skewed) GIN's five hops reach everything from one row.
func TestRunRowsCrossover(t *testing.T) {
	ctx := context.Background()
	type cell struct {
		m        models.Model
		rows     []int32
		wantRows bool
	}
	for _, abbr := range []string{"CO", "AR"} {
		if abbr == "AR" && (testing.Short() || raceBuild) {
			continue
		}
		g := loadGraph(t, abbr)
		x := features(g, 42)
		four := []int32{11, 900, 1337, 2600}
		var third []int32
		for v := 0; v < g.NumVertices(); v += 3 {
			third = append(third, int32(v))
		}
		cells := []cell{{models.NewGCN(), four, true}, {models.NewGAT(), four, true}, {models.NewGCN(), third, false}, {models.NewGIN(), third, false}}
		if abbr == "AR" {
			cells = []cell{{models.NewGCN(), four, true}, {models.NewGIN(), []int32{hub(g)}, false}, {models.NewGIN(), four, false}}
		}
		for _, tc := range cells {
			label := abbr + "/" + tc.m.Name()
			cp := hostProgram(t, tc.m, g, 2)
			out, err := cp.Run(x)
			if err != nil {
				t.Fatal(err)
			}
			want := out.Clone()
			got, info, err := cp.RunRows(ctx, x, tc.rows)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d rows answered %+v", label, len(tc.rows), info)
			if info.Rows != tc.wantRows || info.RowsOut != len(tc.rows) {
				t.Errorf("%s: answered %+v, want rows=%v", label, info, tc.wantRows)
			}
			sameRows(t, label, got, want, tc.rows)
			if info.Rows {
				continue
			}
			// The abandoned walk expanded no more in-edges than the budget:
			// what it counted is at most the budget plus the step that crossed
			// it, and that step's count is a degree sum, not a walk.
			if budget := program.RowFullShare * fullWork(cp, g) / 2; float64(info.Edges) > budget+float64(g.NumEdges()) {
				t.Errorf("%s: the abandoned walk counted %d in-edges against a budget of %.0f", label, info.Edges, budget)
			}
			if info.RowsIn != g.NumVertices() {
				t.Errorf("%s: full pass reports %d input rows, want |V|", label, info.RowsIn)
			}
		}
	}
}

// TestRunRowsHonoursCancelAndDeadline: a context that is already cancelled, or
// whose deadline has passed, stops a row run before its first step — and a
// full pass the walk chose the same way — with the context's error, and the
// program runs again afterwards.
func TestRunRowsHonoursCancelAndDeadline(t *testing.T) {
	g := loadGraph(t, "CO")
	x := features(g, 42)
	cp := hostProgram(t, models.NewGAT(), g, 2)
	out, err := cp.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	want := out.Clone()
	all := make([]int32, g.NumVertices())
	for i := range all {
		all[i] = int32(i)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, stop := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer stop()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{{"cancelled", cancelled, context.Canceled}, {"deadline", expired, context.DeadlineExceeded}} {
		for _, rows := range [][]int32{{7, 1200}, all} {
			if _, _, err := cp.RunRows(tc.ctx, x, rows); !errors.Is(err, tc.want) {
				t.Errorf("%s, %d rows: %v, want %v", tc.name, len(rows), err, tc.want)
			}
		}
	}
	rows := []int32{7, 1200}
	got, info, err := cp.RunRows(context.Background(), x, rows)
	if err != nil || !info.Rows {
		t.Fatalf("after the cancelled runs: %+v, %v", info, err)
	}
	sameRows(t, "after cancel", got, want, rows)
}
