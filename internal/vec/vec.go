// Package vec holds the vector micro-kernels under the host lowering's hot
// loops — the packed-GEMM panel loop and the elementwise operators
// (internal/tensor) and the blocked row-span kernels (internal/core) — and
// the one decision of whether this process runs them (DESIGN.md §14).
//
// The rule every kernel follows is lane = output column (lane = element for
// the elementwise ones): eight adjacent output columns share one 256-bit
// register, each lane multiplies then adds (two roundings, never a fused
// multiply-add) in the same ascending-k or ascending-in-edge order as the
// scalar Go loop it replaces, so a vector result equals the Go result bit
// for bit and the Go loops stay the only portable implementation and the
// oracle. Every exported kernel reports how
// much of the job it did — zero when the vector path is off, on another
// architecture, or when the arguments fall outside what it can prove
// in-bounds — and the caller finishes the rest with its Go form, so a call
// site needs no second dispatch.
//
// Dispatch is decided once, at package initialisation, from CPUID: AVX2 and
// an operating system that saves the YMM state. There is no flag,
// environment variable or build tag; this package owns every assembly file.
package vec

// lanes is the vector width in float32 elements: what the kernels take at a
// time, and so what the counts they report are multiples of.
const lanes = 8

// enabled is the dispatch decision. Only ForceGeneric writes it after
// initialisation.
var enabled = detect()

// ISA names the kernels this process dispatches to: "avx2" or "generic"
// (the Go loops).
func ISA() string {
	if enabled {
		return "avx2"
	}
	return "generic"
}

// Enabled reports whether the vector kernels are dispatched to.
func Enabled() bool { return enabled }

// TB is the part of testing.TB ForceGeneric needs.
type TB interface{ Cleanup(func()) }

// ForceGeneric turns the vector kernels off until the calling test (or
// benchmark) ends, so a suite can run once per kernel set and compare them.
// It is the one seam to the dispatch decision, it takes a test handle so
// that nothing but a test can reach it, and it must not be called while
// kernels run on other goroutines.
func ForceGeneric(tb TB) {
	was := enabled
	enabled = false
	//lint:allow no-alloc-in-run -- test seam, never on a Run path
	tb.Cleanup(func() { enabled = was })
}

// ExpTable is the constants of a float32 exponential of this scheme, which
// Exp evaluates eight lanes at a time with one rounded operation per step:
//
//	t = x*Log2e + Magic         Magic = 1.5 * 2^23, so n = round(x*Log2e) sits
//	n = t - Magic               in t's low mantissa bits
//	r = (x - n*Ln2Hi) - n*Ln2Lo
//	p = C[0]; p = p*r + C[i]    for i = 1..5
//	y = (p*(r*r) + r) + 1
//	e = (y * 2^(n>>1)) * 2^(n-(n>>1))
//
// and x itself for a NaN, +Inf for x > Hi, 0 for x < Lo. The caller owns the
// definition (internal/tensor's exp32 is the scalar form and the oracle);
// the layout is the kernel's.
type ExpTable struct {
	Log2e, Magic, Ln2Hi, Ln2Lo float32
	C                          [6]float32
	Hi, Lo                     float32
}

// EdgeOp selects the arithmetic of EdgeBinary.
type EdgeOp int

// The four binary edge operators, out = a op b.
const (
	EdgeAdd EdgeOp = iota
	EdgeSub
	EdgeMul
	EdgeDiv
)

// EdgeOperand is one input of EdgeBinary: row i of the operand is row Idx[i]
// of Data (Rows rows of the output's width), or, with a nil Idx, row i of
// Data itself.
type EdgeOperand struct {
	Data []float32
	Idx  []int32
	Rows int
}
