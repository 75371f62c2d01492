package core

import (
	"fmt"

	"repro/internal/ops"
)

// Per-edge row kernels of the parallel backend: one fused loop per (edge_op
// x gather_op) combination folding a single edge's operand rows into an
// accumulator row — a straight slice walk the compiler can
// bounds-check-eliminate, with broadcast (width-1) operands branching once
// per edge row, not per element. The span kernels (span.go) call them for
// the in-place form of a reduction and for the operator shapes that have no
// loop of their own; the reference interpreter, by contrast, pays a
// fetcher-closure call per (edge, feature) element.

// fusedRow folds one edge's contribution into an accumulator row:
// acc = gather(acc, edge_op(a, b)), elementwise over the feature dimension.
// For message creation the "gather" is a plain store. a/b may be empty
// (absent operand) or length 1 (broadcast scalar).
type fusedRow func(acc, a, b []float32)

// lowerRowKernel selects the fused specialization for (edge_op, gather_op).
// GatherMean lowers to the sum kernel; the mean division is a post-pass.
// An op combination with no host kernel is a lowering error (reachable from
// user-constructed OpInfo values), not a panic.
func lowerRowKernel(eop ops.EdgeOp, gop ops.GatherOp) (fusedRow, error) {
	if k := rowKernelFor(eop, gop); k != nil {
		return k, nil
	}
	return nil, fmt.Errorf("core: no host kernel for edge op %s with gather %s", eop, gop)
}

// rowKernelFor returns the specialization, or nil when none exists.
func rowKernelFor(eop ops.EdgeOp, gop ops.GatherOp) fusedRow {
	switch gop {
	case ops.GatherSum, ops.GatherMean:
		switch eop {
		case ops.CopyLHS:
			return sumCopyA
		case ops.CopyRHS, ops.EdgeNull:
			return sumCopyB
		case ops.EdgeAdd:
			return sumAdd
		case ops.EdgeSub:
			return sumSub
		case ops.EdgeMul:
			return sumMul
		case ops.EdgeDiv:
			return sumDiv
		}
	case ops.GatherMax:
		switch eop {
		case ops.CopyLHS:
			return maxCopyA
		case ops.CopyRHS, ops.EdgeNull:
			return maxCopyB
		case ops.EdgeAdd:
			return maxBin(func(x, y float32) float32 { return x + y })
		case ops.EdgeSub:
			return maxBin(func(x, y float32) float32 { return x - y })
		case ops.EdgeMul:
			return maxBin(func(x, y float32) float32 { return x * y })
		case ops.EdgeDiv:
			return maxBin(func(x, y float32) float32 { return x / y })
		}
	case ops.GatherMin:
		switch eop {
		case ops.CopyLHS:
			return minCopyA
		case ops.CopyRHS, ops.EdgeNull:
			return minCopyB
		case ops.EdgeAdd:
			return minBin(func(x, y float32) float32 { return x + y })
		case ops.EdgeSub:
			return minBin(func(x, y float32) float32 { return x - y })
		case ops.EdgeMul:
			return minBin(func(x, y float32) float32 { return x * y })
		case ops.EdgeDiv:
			return minBin(func(x, y float32) float32 { return x / y })
		}
	default: // non-reducing gather: store the edge value (message creation)
		switch eop {
		case ops.CopyLHS:
			return storeCopyA
		case ops.CopyRHS, ops.EdgeNull:
			return storeCopyB
		case ops.EdgeAdd:
			return storeAdd
		case ops.EdgeSub:
			return storeSub
		case ops.EdgeMul:
			return storeMul
		case ops.EdgeDiv:
			return storeDiv
		}
	}
	return nil
}

// --- store class (message creation: acc = edge value) ---

func storeCopyA(acc, a, b []float32) {
	if len(a) == 1 {
		v := a[0]
		for j := range acc {
			acc[j] = v
		}
		return
	}
	copy(acc, a)
}

func storeCopyB(acc, a, b []float32) {
	if len(b) == 1 {
		v := b[0]
		for j := range acc {
			acc[j] = v
		}
		return
	}
	copy(acc, b)
}

func storeAdd(acc, a, b []float32) { storeBin(acc, a, b, func(x, y float32) float32 { return x + y }) }
func storeSub(acc, a, b []float32) { storeBin(acc, a, b, func(x, y float32) float32 { return x - y }) }

func storeMul(acc, a, b []float32) {
	switch {
	case len(a) == len(acc) && len(b) == len(acc):
		a, b = a[:len(acc)], b[:len(acc)]
		for j := range acc {
			acc[j] = a[j] * b[j]
		}
	case len(b) == 1 && len(a) == len(acc):
		w := b[0]
		a = a[:len(acc)]
		for j := range acc {
			acc[j] = a[j] * w
		}
	default:
		storeBin(acc, a, b, func(x, y float32) float32 { return x * y })
	}
}

func storeDiv(acc, a, b []float32) {
	switch {
	case len(a) == len(acc) && len(b) == len(acc):
		a, b = a[:len(acc)], b[:len(acc)]
		for j := range acc {
			acc[j] = a[j] / b[j]
		}
	case len(b) == 1 && len(a) == len(acc):
		inv := b[0]
		a = a[:len(acc)]
		for j := range acc {
			acc[j] = a[j] / inv
		}
	default:
		storeBin(acc, a, b, func(x, y float32) float32 { return x / y })
	}
}

// storeBin is the broadcast-general binary store.
func storeBin(acc, a, b []float32, f func(x, y float32) float32) {
	av, bv := float32(0), float32(0)
	aScalar, bScalar := len(a) == 1, len(b) == 1
	if aScalar {
		av = a[0]
	}
	if bScalar {
		bv = b[0]
	}
	for j := range acc {
		x, y := av, bv
		if !aScalar {
			x = a[j]
		}
		if !bScalar {
			y = b[j]
		}
		acc[j] = f(x, y)
	}
}

// --- sum class (also mean; division is a post-pass) ---

func sumCopyA(acc, a, b []float32) {
	if len(a) == 1 {
		v := a[0]
		for j := range acc {
			acc[j] += v
		}
		return
	}
	a = a[:len(acc)]
	for j := range acc {
		acc[j] += a[j]
	}
}

func sumCopyB(acc, a, b []float32) {
	if len(b) == 1 {
		v := b[0]
		for j := range acc {
			acc[j] += v
		}
		return
	}
	b = b[:len(acc)]
	for j := range acc {
		acc[j] += b[j]
	}
}

func sumAdd(acc, a, b []float32) {
	if len(a) == len(acc) && len(b) == len(acc) {
		a, b = a[:len(acc)], b[:len(acc)]
		for j := range acc {
			acc[j] += a[j] + b[j]
		}
		return
	}
	combineBin(acc, a, b, func(x, y float32) float32 { return x + y }, addInto)
}

func sumSub(acc, a, b []float32) {
	if len(a) == len(acc) && len(b) == len(acc) {
		a, b = a[:len(acc)], b[:len(acc)]
		for j := range acc {
			acc[j] += a[j] - b[j]
		}
		return
	}
	combineBin(acc, a, b, func(x, y float32) float32 { return x - y }, addInto)
}

func sumMul(acc, a, b []float32) {
	switch {
	case len(a) == len(acc) && len(b) == len(acc):
		a, b = a[:len(acc)], b[:len(acc)]
		for j := range acc {
			acc[j] += float32(a[j] * b[j])
		}
	case len(b) == 1 && len(a) == len(acc):
		// Full-width source features scaled by a scalar edge weight (GCN,
		// GAT). The conversion rounds the product before the add on targets
		// where the compiler would fuse the two, so this form and
		// spanSumMulScalar's register form agree bit for bit everywhere.
		w := b[0]
		a = a[:len(acc)]
		for j := range acc {
			acc[j] += float32(a[j] * w)
		}
	case len(a) == 1 && len(b) == len(acc):
		w := a[0]
		b = b[:len(acc)]
		for j := range acc {
			acc[j] += float32(w * b[j])
		}
	default:
		combineBin(acc, a, b, func(x, y float32) float32 { return x * y }, addInto)
	}
}

func sumDiv(acc, a, b []float32) {
	switch {
	case len(a) == len(acc) && len(b) == len(acc):
		a, b = a[:len(acc)], b[:len(acc)]
		for j := range acc {
			acc[j] += a[j] / b[j]
		}
	case len(b) == 1 && len(a) == len(acc):
		d := b[0]
		a = a[:len(acc)]
		for j := range acc {
			acc[j] += a[j] / d
		}
	default:
		combineBin(acc, a, b, func(x, y float32) float32 { return x / y }, addInto)
	}
}

// --- max / min classes ---

func maxCopyA(acc, a, b []float32) { maxCopy(acc, a) }
func maxCopyB(acc, a, b []float32) { maxCopy(acc, b) }
func minCopyA(acc, a, b []float32) { minCopy(acc, a) }
func minCopyB(acc, a, b []float32) { minCopy(acc, b) }

func maxCopy(acc, src []float32) {
	if len(src) == 1 {
		v := src[0]
		for j := range acc {
			if v > acc[j] {
				acc[j] = v
			}
		}
		return
	}
	src = src[:len(acc)]
	for j := range acc {
		if src[j] > acc[j] {
			acc[j] = src[j]
		}
	}
}

func minCopy(acc, src []float32) {
	if len(src) == 1 {
		v := src[0]
		for j := range acc {
			if v < acc[j] {
				acc[j] = v
			}
		}
		return
	}
	src = src[:len(acc)]
	for j := range acc {
		if src[j] < acc[j] {
			acc[j] = src[j]
		}
	}
}

func maxBin(f func(x, y float32) float32) fusedRow {
	return func(acc, a, b []float32) { combineBin(acc, a, b, f, maxInto) }
}

func minBin(f func(x, y float32) float32) fusedRow {
	return func(acc, a, b []float32) { combineBin(acc, a, b, f, minInto) }
}

// combineBin is the broadcast-general binary edge op with a pluggable
// combiner; only non-hot shapes land here.
func combineBin(acc, a, b []float32, f func(x, y float32) float32, into func(acc []float32, j int, v float32)) {
	av, bv := float32(0), float32(0)
	aScalar, bScalar := len(a) == 1, len(b) == 1
	if aScalar {
		av = a[0]
	}
	if bScalar {
		bv = b[0]
	}
	for j := range acc {
		x, y := av, bv
		if !aScalar {
			x = a[j]
		}
		if !bScalar {
			y = b[j]
		}
		into(acc, j, f(x, y))
	}
}

func addInto(acc []float32, j int, v float32) { acc[j] += v }

func maxInto(acc []float32, j int, v float32) {
	if v > acc[j] {
		acc[j] = v
	}
}

func minInto(acc []float32, j int, v float32) {
	if v < acc[j] {
		acc[j] = v
	}
}
