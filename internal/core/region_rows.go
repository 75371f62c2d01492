package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Row-resident regions (DESIGN.md §6): a reducing Dst_V operator whose Edge
// operand is computed, for one chunk of destination rows at a time, by a chain
// of destination-local stages — edge-output operators, pure scatters read back
// as Dst_V, elementwise chains, the per-row column mean — so that the |E|-row
// values between them live only in a slab the size of the chunk's in-edge
// list. Every stage walks the chunk's incoming CSR positions in ascending
// order with the loops of the standalone kernels (edgeWriter, rowReducer and
// the caller's elementwise closures), so each requested row holds the bits
// the step-by-step program would have written.
//
// The parallel kernel lowers one, flat or sharded: its row body (rows in
// backend_parallel.go) runs the stages over any row range. The reference
// interpreter lowers the steps the region stands for on whole tensors
// (lowerUnfused), which is also what the resilient ladder's lower rung runs.

// Interior describes the row-resident part of a region to the backend
// lowering its head (Operands.Interior). The head's own operand that is an
// interior value carries its kind and a nil tensor.
type Interior struct {
	// Values are the interior values, indexed by the stages' Out and In.
	Values []InteriorValue
	// Stages produce them, each reading only external tensors and values
	// earlier stages produced.
	Stages []InteriorStage
	// A and B name the interior value bound to the head's operand, -1 for an
	// operand that is an ordinary tensor. Exactly one is an interior Edge value.
	A, B int
}

// InteriorValue is one interior value's shape: an Edge value (one row per
// in-edge) or a Dst_V value (one row per destination, written by a scatter
// stage and read back by the row's own edges).
type InteriorValue struct {
	Kind tensor.Kind
	Cols int
}

// InteriorOperand is a stage operand: interior value In, or the tensor T when
// In is negative.
type InteriorOperand struct {
	T  tensor.Typed
	In int
}

// External wraps a tensor as a stage operand.
func External(t tensor.Typed) InteriorOperand { return InteriorOperand{T: t, In: -1} }

// InteriorStage is one step of the chain. Exactly one of three forms:
// a graph operator (Op valid: an edge-output operator writing an Edge value,
// or copy_rhs with a reducing gather scattering interior Edge value B into a
// Dst_V value); an elementwise Chain applied to Out in place, after copying A
// there when A is another value; or RowMean, Out = the per-row column mean of
// A.
type InteriorStage struct {
	Name    string
	Op      ops.OpInfo
	A, B    InteriorOperand
	Out     int
	Chain   func(*tensor.Dense)
	RowMean bool
}

// isGraph reports whether the stage is a graph operator.
func (s *InteriorStage) isGraph() bool { return s.Chain == nil && !s.RowMean }

// regionEdgeBudget is the slab size of a row-resident region, in in-edges,
// unless a row has more (the slab is then the largest in-degree): the row body
// runs the stages over sub-runs of its rows whose in-edges fit. At GAT's eight
// heads an Edge slab of 2048 rows is 64 KB, so the three a layer needs stay in
// L2 beside the source rows. It is not a tuned value: 512 to 32768 measured
// within the bench host's run-to-run noise (+-8 %) of each other on GAT/PR
// (BenchmarkGATLayer).
const regionEdgeBudget = 2048

// validate checks the chain's shape against the head and the graph: value
// indices in range, every value defined once before it is read, operand kinds
// and widths as the operator's kinds demand.
func (in *Interior) validate(p *Plan, g *graph.Graph, o Operands) error {
	numV, numE := g.NumVertices(), g.NumEdges()
	defined := make([]bool, len(in.Values))
	bad := func(st *InteriorStage, format string, args ...any) error {
		return fmt.Errorf("core: row-resident stage %s: %s", st.Name, fmt.Sprintf(format, args...))
	}
	// operand checks one operand of kind `kind` feeding an outCols-wide result.
	operand := func(op InteriorOperand, kind tensor.Kind, outCols int) error {
		cols := 0
		switch {
		case kind == tensor.Null:
			if op.In >= 0 || op.T.T != nil {
				return errors.New("a Null operand carries a value")
			}
			return nil
		case op.In >= 0:
			if op.In >= len(in.Values) || !defined[op.In] {
				return fmt.Errorf("reads interior value %d before any stage defines it", op.In)
			}
			if v := in.Values[op.In]; v.Kind != kind {
				return fmt.Errorf("reads interior %s value %d as %s", v.Kind, op.In, kind)
			}
			cols = in.Values[op.In].Cols
		default:
			if op.T.Kind != kind {
				return fmt.Errorf("operand kind %s, the operator reads %s", op.T.Kind, kind)
			}
			if err := op.T.Validate(numV, numE, 0); err != nil {
				return err
			}
			cols = op.T.T.Cols
		}
		if cols != outCols && cols != 1 {
			return fmt.Errorf("operand width %d incompatible with output width %d", cols, outCols)
		}
		return nil
	}
	for i := range in.Stages {
		st := &in.Stages[i]
		if st.Out < 0 || st.Out >= len(in.Values) {
			return bad(st, "writes interior value %d of %d", st.Out, len(in.Values))
		}
		out := in.Values[st.Out]
		if out.Cols <= 0 {
			return bad(st, "output width %d", out.Cols)
		}
		switch {
		case st.isGraph():
			if err := st.Op.Validate(); err != nil {
				return bad(st, "%v", err)
			}
			if st.Op.CKind != out.Kind {
				return bad(st, "operator writes %s, value %d is %s", st.Op.CKind, st.Out, out.Kind)
			}
			if st.Op.CKind == tensor.DstV && (st.Op.EdgeOp != ops.CopyRHS || st.B.In < 0) {
				return bad(st, "a Dst_V stage must be the pure scatter of an interior Edge value, got %s", st.Op)
			}
			if err := operand(st.A, st.Op.AKind, out.Cols); err != nil {
				return bad(st, "A: %v", err)
			}
			if err := operand(st.B, st.Op.BKind, out.Cols); err != nil {
				return bad(st, "B: %v", err)
			}
		default:
			if st.A.In < 0 || st.A.In >= len(in.Values) || !defined[st.A.In] {
				return bad(st, "reads interior value %d before any stage defines it", st.A.In)
			}
			src := in.Values[st.A.In]
			if src.Kind != tensor.EdgeK || out.Kind != tensor.EdgeK {
				return bad(st, "elementwise stages run over interior Edge values, got %s -> %s", src.Kind, out.Kind)
			}
			if want := map[bool]int{true: 1, false: src.Cols}[st.RowMean]; out.Cols != want {
				return bad(st, "width %d in, %d out, want %d out", src.Cols, out.Cols, want)
			}
		}
		if defined[st.Out] && !(st.Chain != nil && st.A.In == st.Out) {
			return bad(st, "interior value %d defined twice", st.Out)
		}
		defined[st.Out] = true
	}

	// The head: one interior Edge operand, the other an ordinary vertex tensor
	// (the row reducer resolves one index array per operand kind, and the
	// in-edge positions are the interior operand's).
	if p.Op.CKind != tensor.DstV || !p.Op.GatherOp.IsReduction() {
		return fmt.Errorf("core: row-resident region head %s does not reduce into Dst_V", p.Op)
	}
	if (in.A >= 0) == (in.B >= 0) {
		return fmt.Errorf("core: row-resident region head %s needs exactly one interior operand", p.Op)
	}
	if o.C.Kind != tensor.DstV {
		return fmt.Errorf("core: row-resident region head %s: output operand kind %s", p.Op, o.C.Kind)
	}
	if err := o.C.Validate(numV, numE, 0); err != nil {
		return fmt.Errorf("core: row-resident region head %s: %w", p.Op, err)
	}
	feat := o.C.T.Cols
	head := func(what string, idx int, kind tensor.Kind, t tensor.Typed) error {
		if idx >= 0 {
			if kind != tensor.EdgeK || t.T != nil {
				return fmt.Errorf("core: row-resident region head %s: interior operand %s must be a tensor-less Edge operand", p.Op, what)
			}
			if err := operand(InteriorOperand{In: idx}, kind, feat); err != nil {
				return fmt.Errorf("core: row-resident region head %s: %s: %v", p.Op, what, err)
			}
			return nil
		}
		if kind == tensor.EdgeK || t.Kind != kind {
			return fmt.Errorf("core: row-resident region head %s: operand %s must be an ordinary vertex tensor of kind %s", p.Op, what, kind)
		}
		if err := operand(External(t), kind, feat); err != nil {
			return fmt.Errorf("core: row-resident region head %s: %s: %v", p.Op, what, err)
		}
		return nil
	}
	if err := head("A", in.A, p.Op.AKind, o.A); err != nil {
		return err
	}
	return head("B", in.B, p.Op.BKind, o.B)
}

// rowRegion is an Interior lowered onto the parallel kernel.
type rowRegion struct {
	// pos is 0, 1, 2, ...: the row of a slab that holds a sub-run's i-th
	// in-edge, which is what the row reducers index an interior Edge operand
	// by in place of an edge id. Its length is the slab size.
	pos []int32
	// sets holds one slab set per participant of the kernel's pool job.
	sets       []*slabSet
	stages     int
	slabFloats int
}

// slabSet is one participant's storage and the stages bound to it.
type slabSet struct {
	busy   atomic.Bool
	stages []boundStage
	head   rowReducer
}

// boundStage is one stage lowered against a participant's slabs.
type boundStage struct {
	w     edgeWriter // an edge-output operator
	red   rowReducer // a scatter
	chain func(*tensor.Dense)
	// in and out are the stage's input and output storage: a slab (an Edge
	// value; rows are the chunk's in-edge positions) or, for a scatter's out, a
	// |V|-row tensor shared by all participants (every row has one owner).
	in, out *tensor.Dense
	// inView and outView are the headers the elementwise stages pass on: the
	// leading rows of in and out a chunk filled. Kept here so that a chunk
	// allocates nothing.
	inView, outView tensor.Dense
	kind            uint8
}

const (
	stageEdge uint8 = iota
	stageScatter
	stageChain
	stageRowMean
)

// lowerRowRegion builds the region form of kernel k, whose head reduces into
// k.o.C and whose Interior has been validated: slabs and every stage's loops,
// once.
func lowerRowRegion(k *parallelKernel, in *Interior) (*rowRegion, error) {
	g, o := k.g, k.o
	inPtr := g.InPtr()
	numV := g.NumVertices()
	rr := &rowRegion{stages: len(in.Stages)}
	slabRows := int32(regionEdgeBudget)
	for v := 0; v < numV; v++ {
		slabRows = max(slabRows, inPtr[v+1]-inPtr[v])
	}
	rr.pos = make([]int32, slabRows)
	for i := range rr.pos {
		rr.pos[i] = int32(i)
	}

	// A Dst_V operand of an edge stage is read through each position's
	// destination vertex.
	var inDst []int32
	dsts := func() []int32 {
		if inDst == nil {
			inDst = make([]int32, g.NumEdges())
			for v := 0; v < numV; v++ {
				for p := inPtr[v]; p < inPtr[v+1]; p++ {
					inDst[p] = int32(v)
				}
			}
		}
		return inDst
	}
	shared := make([]*tensor.Dense, len(in.Values))
	for i, v := range in.Values {
		if v.Kind == tensor.DstV {
			shared[i] = tensor.NewDense(numV, v.Cols)
			rr.slabFloats += len(shared[i].Data)
		}
	}

	rr.sets = make([]*slabSet, k.fanout)
	for si := range rr.sets {
		ss := &slabSet{stages: make([]boundStage, len(in.Stages))}
		store := append([]*tensor.Dense(nil), shared...)
		for i, v := range in.Values {
			if v.Kind == tensor.EdgeK {
				store[i] = tensor.NewDense(int(slabRows), v.Cols)
				rr.slabFloats += len(store[i].Data)
			}
		}
		// bound resolves a stage operand under in-edge order: its storage and
		// the index array that maps a position to its row (nil: the slab's own).
		bound := func(op InteriorOperand, kind tensor.Kind) (spanOperand, []int32) {
			t := op.T
			if op.In >= 0 {
				t = tensor.Typed{Kind: kind, T: store[op.In]}
			}
			so := newSpanOperand(t)
			switch {
			case kind == tensor.SrcV:
				return so, g.InSrcs()
			case kind == tensor.DstV:
				return so, dsts()
			case kind == tensor.EdgeK && op.In < 0:
				return so, g.InEdgeIDs()
			}
			return so, nil
		}
		for i := range in.Stages {
			st, bs := &in.Stages[i], &ss.stages[i]
			bs.out = store[st.Out]
			var err error
			switch {
			case st.isGraph() && st.Op.CKind == tensor.EdgeK:
				bs.kind = stageEdge
				a, idxA := bound(st.A, st.Op.AKind)
				b, idxB := bound(st.B, st.Op.BKind)
				bs.w, err = newEdgeWriter(st.Op, a, b, idxA, idxB)
			case st.isGraph():
				bs.kind = stageScatter
				bs.red, err = lowerRowReducer(st.Op, Operands{
					A: tensor.NullTensor, B: tensor.Typed{Kind: tensor.EdgeK, T: store[st.B.In]},
				}, bs.out.Cols)
			case st.RowMean:
				bs.kind, bs.in = stageRowMean, store[st.A.In]
			default:
				bs.kind, bs.in, bs.chain = stageChain, store[st.A.In], st.Chain
			}
			if err != nil {
				return nil, err
			}
			if bs.in != nil {
				bs.inView = *bs.in
			}
			bs.outView = *bs.out
		}
		ho := o
		if in.A >= 0 {
			ho.A.T = store[in.A]
		} else {
			ho.B.T = store[in.B]
		}
		var err error
		if ss.head, err = lowerRowReducer(k.p.Op, ho, o.C.T.Cols); err != nil {
			return nil, err
		}
		rr.sets[si] = ss
	}
	return rr, nil
}

// claim takes a free slab set for a participant of the kernel's row body, nil
// when the kernel is no row-resident region: a job deals chunks to at most
// len(sets) participants and RunRows runs alone, so one is always free.
func (k *parallelKernel) claim() *slabSet {
	if k.region == nil {
		return nil
	}
	for _, ss := range k.region.sets {
		if ss.busy.CompareAndSwap(false, true) {
			return ss
		}
	}
	// Invariant: workpool.Run admits no more participants than the kernel's
	// fan-out, which is how many sets were allocated.
	panic("core: row-resident region has more participants than slab sets")
}

// release gives a claimed slab set back. Nil-safe.
func (ss *slabSet) release() {
	if ss != nil {
		ss.busy.Store(false)
	}
}

// regionRows runs the region's stages and then its head over destination rows
// [rlo, rhi), whose in-edges fit the slabs of ss. Nothing is carried from one
// call to the next — a scatter stage's Dst_V rows are read back by the same
// rows' edges in the same call — so any row range gives its rows the bits any
// other range containing them would.
func (k *parallelKernel) regionRows(ss *slabSet, rlo, rhi int32) {
	rr := k.region
	inPtr := k.g.InPtr()
	s, e := int(inPtr[rlo]), int(inPtr[rhi])
	for i := range ss.stages {
		st := &ss.stages[i]
		switch st.kind {
		case stageEdge:
			st.w.writeEdges(st.out.Data, st.out.Cols, s, s, e)
		case stageScatter:
			st.red.reduceSlab(st.out, k.g, rlo, rhi, s, rr.pos)
		case stageChain:
			st.outView.Rows, st.outView.Data = e-s, st.out.Data[:(e-s)*st.out.Cols]
			if st.in != st.out {
				copy(st.outView.Data, st.in.Data)
			}
			st.chain(&st.outView)
		case stageRowMean:
			st.inView.Rows, st.inView.Data = e-s, st.in.Data[:(e-s)*st.in.Cols]
			st.outView.Rows, st.outView.Data = e-s, st.out.Data[:e-s]
			tensor.RowMeanInto(&st.outView, &st.inView)
		}
	}
	ss.head.reduceSlab(k.o.C.T, k.g, rlo, rhi, s, rr.pos)
}

// lowerUnfused lowers a plan whose operands carry an Interior on backend b as
// the steps it stands for: every interior value a whole tensor, every graph
// stage a kernel of b's, then the head over the materialised operand. It is
// the reference interpreter's lowering of a region head, and the oracle the
// row-resident form is tested against.
func lowerUnfused(b ExecBackend, p *Plan, g *graph.Graph, o Operands) (CompiledKernel, error) {
	in := o.Interior
	if err := in.validate(p, g, o); err != nil {
		return nil, err
	}
	store := make([]*tensor.Dense, len(in.Values))
	for i, v := range in.Values {
		rows := g.NumVertices()
		if v.Kind == tensor.EdgeK {
			rows = g.NumEdges()
		}
		store[i] = tensor.NewDense(rows, v.Cols)
	}
	typed := func(op InteriorOperand, kind tensor.Kind) tensor.Typed {
		if op.In >= 0 {
			return tensor.Typed{Kind: kind, T: store[op.In]}
		}
		return op.T
	}
	uk := &unfusedKernel{p: p}
	for i := range in.Stages {
		st := &in.Stages[i]
		out := store[st.Out]
		switch {
		case st.isGraph():
			// The stages were never scheduled: any schedule computes the same values.
			sp, err := Compile(st.Op, DefaultSchedule)
			if err != nil {
				return nil, err
			}
			sk, err := b.Lower(sp, g, Operands{
				A: typed(st.A, st.Op.AKind), B: typed(st.B, st.Op.BKind),
				C: tensor.Typed{Kind: st.Op.CKind, T: out},
			})
			if err != nil {
				return nil, err
			}
			uk.steps = append(uk.steps, sk.RunCtx)
			uk.kernels = append(uk.kernels, sk)
		case st.RowMean:
			src := store[st.A.In]
			uk.steps = append(uk.steps, func(context.Context) error { tensor.RowMeanInto(out, src); return nil })
		default:
			src, chain := store[st.A.In], st.Chain
			uk.steps = append(uk.steps, func(context.Context) error {
				if src != out {
					copy(out.Data, src.Data)
				}
				chain(out)
				return nil
			})
		}
	}
	ho := o
	ho.Interior = nil
	if in.A >= 0 {
		ho.A.T = store[in.A]
	} else {
		ho.B.T = store[in.B]
	}
	head, err := b.Lower(p, g, ho)
	if err != nil {
		return nil, err
	}
	uk.head = head
	uk.steps = append(uk.steps, head.RunCtx)
	uk.kernels = append(uk.kernels, head)
	return uk, nil
}

// unfusedKernel runs a region's stages and head one after the other.
type unfusedKernel struct {
	p     *Plan
	steps []func(context.Context) error
	head  CompiledKernel
	// kernels are the graph stages' kernels and the head, whose telemetry
	// silenceTelemetry releases.
	kernels []CompiledKernel
}

// Plan implements CompiledKernel.
func (k *unfusedKernel) Plan() *Plan { return k.p }

// Counters implements CompiledKernel with the head's counters.
func (k *unfusedKernel) Counters() Counters { return k.head.Counters() }

// Run implements CompiledKernel.
func (k *unfusedKernel) Run() error { return k.RunCtx(context.Background()) }

// RunCtx implements CompiledKernel. A stage that is not a kernel of its own
// (an elementwise chain) panics into the same *KernelError a kernel's would.
func (k *unfusedKernel) RunCtx(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newKernelError(k.p, "unfused", r, captureStack())
		}
	}()
	for _, step := range k.steps {
		if err := step(ctx); err != nil {
			return err
		}
	}
	return nil
}
