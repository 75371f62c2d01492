package tensor

import "fmt"

// Arena is one contiguous float32 slab that backs many Dense views with
// overlapping lifetimes. Compiled model programs allocate one arena at
// compile time, carve a view per intermediate value out of the planner's
// slot offsets, and then run with zero steady-state allocations — views
// alias the slab, so writing one value reuses the storage of values whose
// live ranges have ended.
type Arena struct {
	buf []float32
}

// NewArena allocates a zeroed arena of n floats. The size comes from the
// buffer planner's slot arithmetic, never from user input, so a negative
// value is an invariant panic (a planner bug).
func NewArena(n int) *Arena {
	if n < 0 {
		panic(fmt.Sprintf("tensor: negative arena size %d", n))
	}
	return &Arena{buf: make([]float32, n)}
}

// View returns a rows×cols Dense aliasing the arena at the given float
// offset. Views may overlap; the caller (the buffer planner) is responsible
// for ensuring overlapping views are never simultaneously live. An
// out-of-bounds view is an invariant panic: offsets are computed by the
// planner from the same sizes it allocated the arena with.
func (a *Arena) View(offset, rows, cols int) *Dense {
	need := rows * cols
	if offset < 0 || offset+need > len(a.buf) {
		panic(fmt.Sprintf("tensor: arena view [%d, %d) out of bounds (arena %d floats)",
			offset, offset+need, len(a.buf)))
	}
	return FromSlice(rows, cols, a.buf[offset:offset+need])
}
