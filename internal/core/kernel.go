package core

import (
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// This file projects a compiled Plan as a gpu.Kernel: the performance-model
// view of the generated kernel. One model per basic strategy encodes the
// mapping of Fig. 6 — which hardware unit owns which work item, how the
// feature dimension is split, where coalescing succeeds and where atomics
// serialise. DESIGN.md §4 describes the two granularities (exact BlockWork,
// sampled TraceBlock).
//
// Address space: each operand and graph index array gets its own 1 GiB
// segment so lines never alias across arrays.

const (
	segA = iota
	segB
	segC
	segInPtr
	segInSrc
	_ // unused slot, kept: renumbering the segments below moves their cache sets and every simulated table
	segEdgeSrc
	segEdgeDst
)

const segmentBytes = int64(1) << 30

// Instruction-cost constants for the work model. Exposed as named constants
// so the ablation benches can reference what each knob costs.
const (
	// GroupLoopInsts is the per-item loop overhead added by V/E grouping.
	GroupLoopInsts = 3.0
	// TileAddrInsts is the per-chunk address arithmetic added by feature tiling.
	TileAddrInsts = 2.0
	// ItemSetupInsts covers per-item index loads and bounds checks.
	ItemSetupInsts = 4.0
	// VertexEpilogueInsts covers the register-accumulator writeback per
	// (vertex, chunk) in vertex-parallel strategies.
	VertexEpilogueInsts = 3.0
	// sectorService is how many 32-byte sectors the L1 serves per cycle: an
	// uncoalesced warp access over N distinct sectors costs N/sectorService
	// LSU cycles (a fully coalesced 128-byte access costs one).
	sectorService = 4.0
)

// operandDesc summarises how one operand is addressed by the model.
type operandDesc struct {
	kind tensor.Kind
	cols int // 0 = absent, 1 = broadcast scalar, else = feature width
	base int64
}

func (d operandDesc) present() bool { return d.kind != tensor.Null }

// row returns the tensor row this operand reads for (edge, src, dst).
func (d operandDesc) row(e, u, v int32) int32 {
	switch d.kind {
	case tensor.SrcV:
		return u
	case tensor.DstV:
		return v
	default:
		return e
	}
}

// line returns the cache line of element (row, elem) of this operand.
func (d operandDesc) line(row int32, elem int) int64 {
	return (d.base + (int64(row)*int64(d.cols)+int64(elem))*4) >> 7
}

// model is the shared state of all strategy kernels.
type model struct {
	plan *Plan
	g    *graph.Graph
	dev  *gpu.Device

	feat       int // F: output feature width
	featChunks int // ceil(F / elemsPerLine)
	elemsLast  int // elements in the final chunk

	a, b, c operandDesc

	items     int // V for vertex-parallel, E for edge-parallel
	numGroups int // ceil(items / Group)
	units     int // numGroups * Tile (threads or warps)

	// lineBuf is the scratch buffer reused across TraceBlock visits (not
	// concurrency-safe; the simulator replays blocks sequentially).
	// Deduplication is a linear scan — warp accesses touch at most 32
	// distinct lines, where scanning beats hashing.
	lineBuf []int64
}

func elemsPerLine(dev *gpu.Device) int { return dev.LineBytes / 4 }

// newModel builds the shared state. aCols/bCols give operand widths (1 for
// broadcast); feat is the output width.
func newModel(p *Plan, g *graph.Graph, feat, aCols, bCols int, dev *gpu.Device) *model {
	epl := elemsPerLine(dev)
	chunks := (feat + epl - 1) / epl
	if chunks == 0 {
		chunks = 1
	}
	last := feat - (chunks-1)*epl
	if last <= 0 {
		last = feat
	}
	m := &model{
		plan: p, g: g, dev: dev,
		feat: feat, featChunks: chunks, elemsLast: last,
		a:       operandDesc{kind: p.Op.AKind, cols: aCols, base: segA * segmentBytes},
		b:       operandDesc{kind: p.Op.BKind, cols: bCols, base: segB * segmentBytes},
		c:       operandDesc{kind: p.Op.CKind, cols: feat, base: segC * segmentBytes},
		lineBuf: make([]int64, 0, 64),
	}
	if p.Schedule.Strategy.VertexParallel() {
		m.items = g.NumVertices()
	} else {
		m.items = g.NumEdges()
	}
	gsz := p.Schedule.Group
	m.numGroups = (m.items + gsz - 1) / gsz
	m.units = m.numGroups * p.Schedule.Tile
	if m.units == 0 {
		m.units = 0
	}
	return m
}

// loadInstCounts returns (fullWidthInputs, scalarInputs): how many input
// operands are full feature width vs broadcast scalars. C is a store and
// charges no load latency.
func (m *model) loadInstCounts() (fw, sc float64) {
	for _, d := range []operandDesc{m.a, m.b} {
		if !d.present() {
			continue
		}
		if d.cols == 1 {
			sc++
		} else {
			fw++
		}
	}
	return fw, sc
}

// Footprint sums the bytes of every array the kernel touches: the three
// operand tensors and the graph index arrays its traversal reads.
func (m *model) Footprint() int64 {
	v := int64(m.g.NumVertices())
	e := int64(m.g.NumEdges())
	bytesOf := func(d operandDesc) int64 {
		if !d.present() {
			return 0
		}
		rows := v
		if d.kind == tensor.EdgeK {
			rows = e
		}
		return rows * int64(d.cols) * 4
	}
	total := bytesOf(m.a) + bytesOf(m.b) + bytesOf(m.c)
	if m.plan.Schedule.Strategy.VertexParallel() {
		total += (v + 1 + e) * 4 // inPtr + inSrc
		if m.c.kind == tensor.EdgeK {
			total += e * 4 // inEdges
		}
	} else {
		total += 2 * e * 4 // edgeSrc + edgeDst
	}
	return total
}

// tileChunks returns how many feature chunks tile t owns (chunks are dealt
// round-robin across tiles; tiles beyond the chunk count own none and are
// launched idle — the parallelism-waste side of over-tiling).
func (m *model) tileChunks(t int) int {
	if t >= m.featChunks {
		return 0
	}
	return (m.featChunks - t + m.plan.Schedule.Tile - 1) / m.plan.Schedule.Tile
}

// tileElems returns the feature elements tile t owns.
func (m *model) tileElems(t int) int {
	epl := elemsPerLine(m.dev)
	n := 0
	for c := t; c < m.featChunks; c += m.plan.Schedule.Tile {
		if c == m.featChunks-1 {
			n += m.elemsLast
		} else {
			n += epl
		}
	}
	return n
}

// unitSplit decomposes a unit id into (tile, first item, item count).
// Units are item-major: consecutive units cover consecutive item groups
// within the same tile, so warp lanes of thread strategies touch adjacent
// items.
func (m *model) unitSplit(unit int) (tile, firstItem, itemCount int) {
	tile = unit / m.numGroups
	groupIdx := unit % m.numGroups
	gsz := m.plan.Schedule.Group
	firstItem = groupIdx * gsz
	itemCount = gsz
	if firstItem+itemCount > m.items {
		itemCount = m.items - firstItem
	}
	if itemCount < 0 {
		itemCount = 0
	}
	return tile, firstItem, itemCount
}

// instsPerElem is the per-feature-element issue cost including tiling
// overhead amortised per chunk.
func (m *model) instsPerElem() float64 {
	insts := m.plan.InstsPerElement
	if m.plan.Schedule.Tile > 1 {
		insts += TileAddrInsts / float64(elemsPerLine(m.dev))
	}
	return insts
}

// perItemOverhead is the per-work-item setup cost including grouping loops.
func (m *model) perItemOverhead() float64 {
	o := ItemSetupInsts
	if m.plan.Schedule.Group > 1 {
		o += GroupLoopInsts
	}
	return o
}

// addLine appends a line, deduplicating within the current warp access.
func (m *model) addLine(line int64) {
	for _, l := range m.lineBuf {
		if l == line {
			return
		}
	}
	m.lineBuf = append(m.lineBuf, line)
}

// addLineDup appends without the dedup scan. Used for scattered per-lane
// feature reads in thread-mapped traces, where cross-lane line collisions
// are rare and a duplicate merely records an extra guaranteed cache hit.
func (m *model) addLineDup(line int64) {
	m.lineBuf = append(m.lineBuf, line)
}

// flushAccess emits the accumulated lines as one warp access and resets the
// scratch buffer.
func (m *model) flushAccess(atomic bool, visit func(gpu.WarpAccess)) {
	if len(m.lineBuf) == 0 {
		return
	}
	visit(gpu.WarpAccess{Lines: m.lineBuf, Atomic: atomic})
	m.lineBuf = m.lineBuf[:0]
}

// Kernel builds the gpu.Kernel for this plan over graph g with output width
// feat; aCols/bCols are operand widths (pass 1 for broadcast scalars, 0 or
// feat otherwise).
func (p *Plan) Kernel(g *graph.Graph, feat, aCols, bCols int, dev *gpu.Device) gpu.Kernel {
	m := newModel(p, g, feat, aCols, bCols, dev)
	switch p.Schedule.Strategy {
	case ThreadVertex, ThreadEdge:
		return &threadKernel{model: m}
	default:
		return &warpKernel{model: m}
	}
}

// KernelFor derives operand widths from actual operands and builds the kernel.
func (p *Plan) KernelFor(g *graph.Graph, o Operands, dev *gpu.Device) (gpu.Kernel, error) {
	feat, err := o.featureWidth()
	if err != nil {
		return nil, err
	}
	cols := func(t tensor.Typed) int {
		if t.Kind == tensor.Null || t.T == nil {
			return 0
		}
		return t.T.Cols
	}
	return p.Kernel(g, feat, cols(o.A), cols(o.B), dev), nil
}
