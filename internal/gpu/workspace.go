package gpu

import "sync"

// MaxTraceLine is the largest line id a Kernel may report in a WarpAccess.
// Simulate records trace lines as uint32, half the bytes of the int64 ids the
// interface carries (the recorded trace is most of what a simulation holds);
// core's segment layout keeps every id below 2^26.
const MaxTraceLine = 1<<32 - 2

// workspace is the scratch one Simulate call works in: the recorded sample
// trace, the set of its distinct lines, the simulated caches and the per-block
// work. Grid search runs many simulations back to back and several at once,
// and allocating these per call cost more than a sixth of the CPU in
// memmove, slice growth and memclr; a pooled workspace is sized by the calls
// before it and reset to what the last call used.
type workspace struct {
	lines     []uint32 // trace line ids in access order
	bounds    []int32  // per access: its line count, negated for atomics
	blockEnds []int    // per traced block: the end of its accesses in bounds
	distinct  lineSet
	l2        Cache
	l1s       []Cache
	works     []BlockWork
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// getWorkspace returns an empty workspace.
func getWorkspace() *workspace { return workspaces.Get().(*workspace) }

// putWorkspace empties ws and returns it to the pool. Only the distinct-line
// set needs clearing; everything else is overwritten before it is read.
func putWorkspace(ws *workspace) {
	ws.lines = ws.lines[:0]
	ws.bounds = ws.bounds[:0]
	ws.blockEnds = ws.blockEnds[:0]
	ws.distinct.reset()
	workspaces.Put(ws)
}

// l1Caches returns n empty L1 caches.
func (ws *workspace) l1Caches(n, capacityBytes, lineBytes, ways int) []Cache {
	if cap(ws.l1s) < n {
		ws.l1s = append(ws.l1s[:cap(ws.l1s)], make([]Cache, n-cap(ws.l1s))...)
	}
	l1s := ws.l1s[:n]
	for i := range l1s {
		l1s[i].init(capacityBytes, lineBytes, ways)
	}
	return l1s
}

// traceChunk is the trace buffers' first capacity: a small kernel's whole
// sample fits in it.
const traceChunk = 1 << 14

// reserve returns buf with room for n more entries. Past traceChunk the
// buffer jumps to the trace budget (and an eighth more, for the block that
// crosses it) in one step: doubling its way there copied and discarded more
// than the simulation kept, and the garbage, not the trace, set a grid
// search's resident memory.
func reserve[T uint32 | int32](buf []T, n, budget int) []T {
	need := len(buf) + n
	if need <= cap(buf) {
		return buf
	}
	c := traceChunk
	if need > c {
		c = max(budget+budget/8, 2*cap(buf), need)
	}
	grown := make([]T, len(buf), c)
	copy(grown, buf)
	return grown
}

// blockWork returns a slice of n BlockWork for the caller to fill.
func (ws *workspace) blockWork(n int) []BlockWork {
	if cap(ws.works) < n {
		ws.works = make([]BlockWork, n)
	}
	return ws.works[:n]
}
