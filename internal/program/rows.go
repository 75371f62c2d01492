package program

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Row-subset runs (DESIGN.md §15): a compiled program can produce a chosen
// set of its output rows by running every step over only the rows something
// downstream needs. Every step already is a body over rows [lo, hi) with no
// state between rows — the span kernels and the row-resident region heads
// walk one owner per destination row, the dense steps are bound to row ranges
// (dense.go) — so nothing new executes: RunRows walks the steps backwards
// from the requested rows to a needed-row set per value, copies the needed
// input rows, and runs each step's body over its set as sorted runs. Same
// program, same arena, same kernels, no extracted subgraph and no id remap;
// and because a row's in-edges are reduced in the same order by the same
// loops, the requested rows hold the bits a full Run writes there.
//
// What the walk knows about a step is its row reads: for each operand, which
// rows the step reads of it to write a set S of its own rows — S itself
// (carry: a dense operand, a Dst_V operand) or the sources of S's in-edges
// (expand: a Src_V operand). They are derived here from operand kinds at
// compile time and proven by the verifier's row-closure rule, which re-derives
// them on its own (verify_rows.go).
//
// The exact L-hop in-closure of a few rows is usually tiny and sometimes most
// of the graph (a hub, a deep model), and past some size the full pass —
// streaming, split over the pool — beats recomputing it row by row on one
// goroutine. The walk itself observes which case it is in: it adds up the rows
// and in-edges each graph step would process and abandons to the full pass the
// moment that passes the crossover share of the full pass's, so a request pays
// for at most that much walking before the choice is made.

// rowFullShare is the crossover: a row run is abandoned for the full pass once
// the rows plus in-edges its graph steps would process, times the worker count
// (the full pass is split over the pool, a row run is not), exceed this share
// of the full pass's. Six forced-row-mode sweeps of BenchmarkRunRows on a
// 2-vCPU Xeon host put the break-even — the share at which a forced row run
// takes as long as the full pass on two workers — at about 0.07–0.13 for GCN
// on PR, 0.14–0.23 for GAT on PR, 0.13–0.21 for GCN on AR, 0.45 for GAT on
// AR, 0.55–0.7 for GIN on PR and 0.85–0.95 for GIN on AR. A row run costs
// more per row than the streamed pass — single-row GEMM and span calls, the
// walk, the sort — and less so where rows are heavy; the dense steps are not
// in the count, which is why deep, MLP-heavy GIN breaks even latest. 0.2 sits
// under GIN's and GAT-on-AR's break-even but above GCN-on-PR's and inside
// GAT-on-PR's and GCN-on-AR's: there a closure of 0.1–0.2 of the pass runs
// rows up to about twice as long as the full pass would take.
const rowFullShare = 0.2

// rowRead is one operand of a step as the backward walk sees it.
type rowRead struct {
	v ValueID
	// expand: the step reads v at the sources of its rows' in-edges (a Src_V
	// operand); otherwise at its rows themselves.
	expand bool
}

// rowReadsOf derives node n's row reads from its operand kinds, a
// row-resident region's interior included: the interior nodes run inside the
// head's rows, so what they read from outside is read for the head's rows.
// declined is non-empty when n has no vertex-row form at all.
func rowReadsOf(p *Program, n *Node) (reads []rowRead, declined string) {
	if p.Values[n.Out].Rows == EdgeRows {
		return nil, "it writes an Edge value, whose rows are not vertices"
	}
	add := func(v ValueID, kind tensor.Kind) {
		if v == NoValue || p.Values[v].Const || n.Region.interior(v) {
			return // absent, needs no rows, or computed inside the rows that read it
		}
		if p.Values[v].Rows == EdgeRows {
			declined = "it reads a computed Edge value, whose rows are not vertices"
			return
		}
		reads = append(reads, rowRead{v: v, expand: kind == tensor.SrcV})
	}
	if n.Op != OpGraph {
		for _, v := range n.operands() {
			add(v, tensor.DstV)
		}
		return reads, declined
	}
	add(n.X, n.GOp.AKind)
	add(n.Y, n.GOp.BKind)
	if n.Region != nil {
		for i := range n.Region.Interior {
			d := &n.Region.Interior[i]
			if d.Op == OpGraph {
				add(d.X, d.GOp.AKind)
				add(d.Y, d.GOp.BKind)
			} else {
				add(d.X, tensor.DstV)
			}
		}
	}
	return reads, declined
}

// bindRows records step st's row form: the reads derived from its node and,
// for a graph step, the lowered kernel's row-set entry point. The first step
// without one makes the program answer every RunRows with the full pass.
func (cp *CompiledProgram) bindRows(st *step, n *Node) {
	st.rowReads, st.rowDeclined = rowReadsOf(cp.prog, n)
	if st.kern != nil && st.rowDeclined == "" {
		var ok bool
		if st.rowKern, ok = core.AsRowRunner(st.kern); !ok {
			st.rowDeclined = "its lowering has no row-set form (only the parallel backend's reducing kernels have one)"
		}
	}
	if st.rowDeclined != "" && cp.rowsDeclined == "" {
		cp.rowsDeclined = fmt.Sprintf("step %s: %s", st.name, st.rowDeclined)
	}
	if st.kern != nil {
		cp.rowFullWork += int64(cp.g.NumVertices()) + int64(cp.g.NumEdges())
	}
}

// RowsCapable reports whether RunRows can run row sets on this program, and
// when it cannot, which step declined and why.
func (cp *CompiledProgram) RowsCapable() (ok bool, declined string) {
	return cp.rowsDeclined == "", cp.rowsDeclined
}

// corruptRows corrupts a clone of the steps' recorded row reads (verify.go).
// Seed 0 records the first Src_V operand as carried; seed 1 drops, from the
// first row-resident region's head, a read that only its interior makes.
// Either way the step is presented as running row sets, whatever its lowering
// said.
func corruptRows(p *Program, steps []step, seed uint64) {
	k := -1
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Op == OpInput || n.Op == OpConst {
			continue
		}
		k++
		st := &steps[k]
		if seed == 0 {
			for j := range st.rowReads {
				if st.rowReads[j].expand {
					st.rowReads[j].expand, st.rowDeclined = false, ""
					return
				}
			}
			continue
		}
		if n.Region == nil || len(n.Region.Interior) == 0 {
			continue
		}
		for j, r := range st.rowReads {
			if r.v != n.X && r.v != n.Y {
				st.rowReads, st.rowDeclined = slices.Delete(st.rowReads, j, j+1), ""
				return
			}
		}
	}
}

// rowSet is the needed rows of one value during a RunRows: a stamp per vertex
// (equal to the run's epoch = in the set) and the members in discovery order,
// sorted just before the producing step runs. Reused across runs; nothing is
// cleared but the list's length.
type rowSet struct {
	stamp []uint32
	rows  []int32
	epoch uint32
}

func (s *rowSet) add(r int32) {
	if s.stamp[r] != s.epoch {
		s.stamp[r] = s.epoch
		s.rows = append(s.rows, r)
	}
}

// sorted puts the members in ascending order, which is the order the steps'
// bodies run them in. A set that holds more than a thirty-second of the
// vertices is re-read off the stamps — one pass over |V| words, about what
// sorting |V|/32 ids costs — and a smaller one is sorted.
func (s *rowSet) sorted() []int32 {
	if len(s.rows)*32 <= len(s.stamp) {
		slices.Sort(s.rows)
		return s.rows
	}
	rows := s.rows[:0]
	for v, e := range s.stamp {
		if e == s.epoch {
			rows = append(rows, int32(v))
		}
	}
	return rows
}

// rowSetOf returns value v's set for the current run, emptied on its first
// use in the run and allocated on its first use ever: a program that only ever
// sees Run holds no row-set storage, and one whose walks are abandoned early
// holds the sets of its last layers only.
func (cp *CompiledProgram) rowSetOf(v ValueID) *rowSet {
	s := cp.rowSets[v]
	if s == nil {
		s = &rowSet{stamp: make([]uint32, cp.g.NumVertices())}
		cp.rowSets[v] = s
	}
	if s.epoch != cp.rowEpoch {
		s.epoch, s.rows = cp.rowEpoch, s.rows[:0]
	}
	return s
}

// currentRows returns value v's set if the current run put anything in it.
func (cp *CompiledProgram) currentRows(v ValueID) *rowSet {
	if s := cp.rowSets[v]; s != nil && s.epoch == cp.rowEpoch && len(s.rows) > 0 {
		return s
	}
	return nil
}

// RowRun says how one RunRows call was answered.
type RowRun struct {
	// Rows is true for a row-subset run, false for the full pass.
	Rows bool
	// RowsOut is the number of distinct requested rows, |R_L|; RowsIn the
	// number of input rows the answer was computed from, |R_0| — the exact
	// L-hop in-closure for a row run, every vertex for the full pass.
	RowsOut, RowsIn int
	// Edges is the in-edges of the rows the graph steps needed, summed over
	// the steps, and Work those in-edges plus those rows: the quantity the
	// row-or-full rule prices a row run by. For a full pass the walk chose,
	// both stop at the step that crossed the budget; for a program that never
	// walks they are zero.
	Edges int
	Work  int64
}

// Mode names the answer: "rows" or "full".
func (r RowRun) Mode() string {
	if r.Rows {
		return "rows"
	}
	return "full"
}

// ErrEmptyRowSet is RunRows' error for a request that names no row.
var ErrEmptyRowSet = errors.New("program: RunRows needs at least one row")

// RowRangeError is RunRows' error for a requested row that is not a vertex of
// the compiled graph.
type RowRangeError struct {
	Row      int32
	Vertices int
}

// Error implements error.
func (e *RowRangeError) Error() string {
	return fmt.Sprintf("program: RunRows row %d out of range [0, %d)", e.Row, e.Vertices)
}

// RunRows computes the requested rows of the program's output on input
// features x (|V| rows, of which only the rows the closure reaches are read).
// rows may be unsorted and may repeat. In the returned tensor — the program's
// arena-resident output, as from Run — exactly the requested rows are valid,
// bit for bit what a full Run would have written there, until the next Run or
// RunRows; every other row holds whatever an earlier call left. Not safe for
// concurrent use, like Run, and guarded the same way.
//
// The row-or-full choice is made per call from what the backward walk
// observes (rowFullShare); a program one of whose steps has no row form
// (RowsCapable) always takes the full pass. Either way the answer is the same
// rows. A row run executes on the calling goroutine; it leaves the same span
// tree in the caller's trace as a full pass (run "forward-rows", then a span
// per step that ran and a kernel span under each graph step) but does not feed
// the steps' wall-time sites or the kernels' run and wall-time series, which
// stay "the full step".
func (cp *CompiledProgram) RunRows(ctx context.Context, x *tensor.Dense, rows []int32) (*tensor.Dense, RowRun, error) {
	return cp.runRows(ctx, x, rows, rowFullShare)
}

// runRows is RunRows with the crossover share as a parameter: +Inf never
// abandons (the forced row mode the tests and the crossover sweep use).
func (cp *CompiledProgram) runRows(ctx context.Context, x *tensor.Dense, rows []int32, share float64) (*tensor.Dense, RowRun, error) {
	if !cp.running.CompareAndSwap(0, 1) {
		return nil, RowRun{}, ErrConcurrentRun
	}
	defer cp.running.Store(0)
	numV := cp.g.NumVertices()
	if len(rows) == 0 {
		return nil, RowRun{}, ErrEmptyRowSet
	}
	for _, r := range rows {
		if r < 0 || int(r) >= numV {
			return nil, RowRun{}, &RowRangeError{Row: r, Vertices: numV}
		}
	}
	if err := cp.checkInput(x); err != nil {
		return nil, RowRun{}, err
	}
	info := RowRun{RowsOut: len(rows)}
	if cp.rowsDeclined == "" {
		budget := int64(math.MaxInt64)
		if !math.IsInf(share, 1) {
			budget = int64(share * float64(cp.rowFullWork) / float64(cp.workers))
		}
		info = cp.walkRows(rows, budget)
	}
	if !info.Rows {
		info.RowsIn = numV
		out, err := cp.forward(ctx, x)
		return out, info, err
	}
	if err := cp.runRowSets(ctx, x); err != nil {
		return nil, info, err
	}
	return cp.output, info, nil
}

// walkRows is the backward walk of a row run: it seeds the output's set with
// the requested rows and, step by step from the last, turns each step's
// needed rows into its operands' by the step's row reads. Steps are in
// topological order, so by the time a step is reached every reader of its
// value has added what it needs. It reports the run as a row run unless the
// graph steps' rows plus in-edges pass budget, at which point it stops: the
// count so far is a degree sum, so an abandoned walk has expanded at most the
// budget's worth of edges.
func (cp *CompiledProgram) walkRows(rows []int32, budget int64) RowRun {
	if cp.rowSets == nil {
		cp.rowSets = make([]*rowSet, len(cp.prog.Values))
	}
	if cp.rowEpoch++; cp.rowEpoch == 0 { // wrapped: every stamp is stale
		for _, s := range cp.rowSets {
			if s != nil {
				clear(s.stamp)
				s.epoch = 0
			}
		}
		cp.rowEpoch = 1
	}
	want := cp.rowSetOf(cp.prog.Output)
	for _, r := range rows {
		want.add(r)
	}
	info := RowRun{RowsOut: len(want.rows)}

	inPtr, inSrc := cp.g.InPtr(), cp.g.InSrcs()
	for i := len(cp.steps) - 1; i >= 0; i-- {
		st := &cp.steps[i]
		set := cp.currentRows(st.vout)
		if set == nil {
			continue
		}
		need := set.rows
		if st.kern != nil {
			edges := 0
			for _, r := range need {
				edges += int(inPtr[r+1] - inPtr[r])
			}
			info.Edges += edges
			if info.Work += int64(len(need) + edges); info.Work > budget {
				return info
			}
		}
		for _, rd := range st.rowReads {
			dst := cp.rowSetOf(rd.v)
			if !rd.expand {
				for _, r := range need {
					dst.add(r)
				}
				continue
			}
			for _, r := range need {
				for _, u := range inSrc[inPtr[r]:inPtr[r+1]] {
					dst.add(u)
				}
			}
		}
	}
	info.Rows = true
	if in := cp.currentRows(cp.prog.Input); in != nil {
		info.RowsIn = len(in.rows)
	}
	return info
}

// runRowSets is the forward half of a row run: the needed input rows are
// copied in, then every step whose set the walk filled runs its body over the
// set, sorted, as runs of consecutive rows — a graph step through its kernel's
// row-set entry point, a dense step through its row-range body.
func (cp *CompiledProgram) runRowSets(ctx context.Context, x *tensor.Dense) (err error) {
	if err := cp.revalidate(); err != nil {
		return err
	}
	run := telemetry.StartSpanCtx(ctx, "program", "run", "forward-rows")
	prevRun := run.MakeCurrent()
	defer func() {
		run.RestoreCurrent(prevRun)
		switch {
		case err == nil:
			run.End()
		case err == ctx.Err():
			run.EndErr("cancelled")
		default:
			run.EndErr(err.Error())
		}
	}()
	if in := cp.currentRows(cp.prog.Input); in != nil {
		for _, r := range in.rows {
			copy(cp.input.Row(int(r)), x.Row(int(r)))
		}
	}
	for i := range cp.steps {
		st := &cp.steps[i]
		set := cp.currentRows(st.vout)
		if set == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		need := set.sorted()
		sp := telemetry.StartSpanCtx(ctx, "program", "step", st.label)
		prevStep := sp.MakeCurrent()
		if st.rowKern != nil {
			err = st.rowKern.RunRows(ctx, need)
		} else {
			for j := 0; j < len(need); {
				lo, hi, next := core.NextRun(need, j)
				st.body(int(lo), int(hi))
				j = next
			}
		}
		sp.RestoreCurrent(prevStep)
		if err != nil {
			sp.EndErr(err.Error())
			return fmt.Errorf("program: %s: %w", st.name, err)
		}
		sp.End()
	}
	return nil
}
