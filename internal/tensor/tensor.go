// Package tensor provides the dense float32 tensors that carry vertex and
// edge feature embeddings, plus the dense neural-network operators (GEMM,
// bias, activations) that GNN models interleave with graph operators.
//
// The paper's unified abstraction (Fig. 5) types each tensor as a source
// vertex tensor, destination vertex tensor, edge tensor, or NULL; that typing
// lives here as Kind and drives the addressing rules in internal/core.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Kind is the graph-semantic type of an embedding tensor, matching the
// tensor_type_list of the paper's Fig. 5.
type Kind uint8

const (
	// Null marks an absent tensor (the operator skips that operand).
	Null Kind = iota
	// SrcV is a vertex tensor addressed by an edge's source vertex.
	SrcV
	// DstV is a vertex tensor addressed by an edge's destination vertex.
	DstV
	// EdgeK is an edge tensor addressed by edge id.
	EdgeK
)

// String returns the paper's spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Null:
		return "Null"
	case SrcV:
		return "Src_V"
	case DstV:
		return "Dst_V"
	case EdgeK:
		return "Edge"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsVertex reports whether the kind addresses a vertex tensor.
func (k Kind) IsVertex() bool { return k == SrcV || k == DstV }

// Dense is a row-major 2-D float32 tensor: Rows feature vectors of width Cols.
// Row r occupies Data[r*Cols : (r+1)*Cols].
type Dense struct {
	Rows, Cols int
	Data       []float32
}

// NewDense allocates a zeroed Rows×Cols tensor. A negative shape is an
// invariant panic: shapes come from model code and validated graph sizes,
// not from raw user input (untrusted sizes are bounds-checked at the
// ReadEdgeList / validateOperands boundary).
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (length rows*cols) as a Dense without copying. The
// length check is an invariant panic: callers pass slices they sized
// themselves (arena views, model buffers), so a mismatch is a bug at the
// call site, not a data condition.
func FromSlice(rows, cols int, data []float32) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// Row returns row r as a slice aliasing the tensor's storage.
func (t *Dense) Row(r int) []float32 { return t.Data[r*t.Cols : (r+1)*t.Cols] }

// RowRange returns rows [lo, hi) as a view aliasing the tensor's storage.
// It is a value, so taking one allocates nothing; the dense operators run
// unchanged over it, which is how a row-wise operator is split into
// independent row ranges.
func (t *Dense) RowRange(lo, hi int) Dense {
	return Dense{Rows: hi - lo, Cols: t.Cols, Data: t.Data[lo*t.Cols : hi*t.Cols]}
}

// At returns element (r, c).
func (t *Dense) At(r, c int) float32 { return t.Data[r*t.Cols+c] }

// Clone returns a deep copy.
func (t *Dense) Clone() *Dense {
	d := make([]float32, len(t.Data))
	copy(d, t.Data)
	return &Dense{Rows: t.Rows, Cols: t.Cols, Data: d}
}

// Zero resets all elements to 0.
func (t *Dense) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Dense) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// FillRandom fills with uniform values in [-scale, scale) from rng,
// deterministic for a fixed seed.
func (t *Dense) FillRandom(rng *rand.Rand, scale float32) {
	for i := range t.Data {
		t.Data[i] = (rng.Float32()*2 - 1) * scale
	}
}

// Equal reports exact element-wise equality of shape and contents.
//
//lint:allow unread -- the tensor, core, program and models tests compare outputs with it
func (t *Dense) Equal(o *Dense) bool {
	if t.Rows != o.Rows || t.Cols != o.Cols {
		return false
	}
	for i, v := range t.Data {
		if v != o.Data[i] && !(isNaN32(v) && isNaN32(o.Data[i])) {
			return false
		}
	}
	return true
}

// BitDiff returns the index of the first element whose bits differ between t
// and o, or -1 when there is none. It is stricter than Equal — a zero's sign
// and a denormal's last bit must match — except that any NaN matches any NaN:
// which payload survives when two NaNs meet depends on operand order, and Go
// leaves that to its register allocator. A shape mismatch differs at 0.
//
//lint:allow unread -- the bit-identity tests of tensor, core, program and models are built on it
func (t *Dense) BitDiff(o *Dense) int {
	if t.Rows != o.Rows || t.Cols != o.Cols {
		return 0
	}
	for i, v := range t.Data {
		w := o.Data[i]
		if math.Float32bits(v) != math.Float32bits(w) && !(isNaN32(v) && isNaN32(w)) {
			return i
		}
	}
	return -1
}

// AllClose reports element-wise closeness within absolute tolerance atol and
// relative tolerance rtol, the comparison used to check scheduled executions
// against the reference loop (floating-point reduction order may differ).
func (t *Dense) AllClose(o *Dense, atol, rtol float64) bool {
	return t.MaxDiff(o) >= 0 && t.withinTol(o, atol, rtol)
}

func (t *Dense) withinTol(o *Dense, atol, rtol float64) bool {
	if t.Rows != o.Rows || t.Cols != o.Cols {
		return false
	}
	for i, v := range t.Data {
		a, b := float64(v), float64(o.Data[i])
		if math.IsNaN(a) && math.IsNaN(b) {
			continue
		}
		if math.Abs(a-b) > atol+rtol*math.Max(math.Abs(a), math.Abs(b)) {
			return false
		}
	}
	return true
}

// MaxDiff returns the maximum absolute element difference, or -1 on shape
// mismatch.
func (t *Dense) MaxDiff(o *Dense) float64 {
	if t.Rows != o.Rows || t.Cols != o.Cols {
		return -1
	}
	var maxd float64
	for i, v := range t.Data {
		d := math.Abs(float64(v) - float64(o.Data[i]))
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

func isNaN32(v float32) bool { return v != v }

// Typed pairs a dense tensor with its graph-semantic kind; it is the operand
// form consumed by the uGrapher API.
type Typed struct {
	Kind Kind
	T    *Dense
}

// NullTensor is the absent operand.
var NullTensor = Typed{Kind: Null}

// Src wraps t as a source-vertex tensor.
func Src(t *Dense) Typed { return Typed{Kind: SrcV, T: t} }

// Dst wraps t as a destination-vertex tensor.
func Dst(t *Dense) Typed { return Typed{Kind: DstV, T: t} }

// Edge wraps t as an edge tensor.
//
//lint:allow unread -- the core, program and dglcompat tests bind their edge operands with it
func Edge(t *Dense) Typed { return Typed{Kind: EdgeK, T: t} }

// Validate checks that a typed operand of feature width wantCols is
// consistent with a graph of numVertices/numEdges.
func (ty Typed) Validate(numVertices, numEdges, wantCols int) error {
	if ty.Kind == Null {
		if ty.T != nil {
			return fmt.Errorf("tensor: NULL operand must carry no data")
		}
		return nil
	}
	if ty.T == nil {
		return fmt.Errorf("tensor: %s operand missing data", ty.Kind)
	}
	wantRows := numVertices
	if ty.Kind == EdgeK {
		wantRows = numEdges
	}
	if ty.T.Rows != wantRows {
		return fmt.Errorf("tensor: %s operand has %d rows, want %d", ty.Kind, ty.T.Rows, wantRows)
	}
	if wantCols > 0 && ty.T.Cols != wantCols {
		return fmt.Errorf("tensor: %s operand has %d cols, want %d", ty.Kind, ty.T.Cols, wantCols)
	}
	return nil
}
