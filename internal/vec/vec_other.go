//go:build !amd64

package vec

// No vector kernels on this architecture: every kernel reports that it did
// nothing and the callers' Go loops do all the work.

func detect() bool { return false }

// GemmPanels computes nothing here; see the amd64 form.
func GemmPanels(out, a, panels []float32, lo, hi, k, n int) int { return 0 }

// GemmPanelsAcc computes nothing here; see the amd64 form.
func GemmPanelsAcc(out, a, panels []float32, lo, hi, k, n int) int { return 0 }

// ReLU computes nothing here; see the amd64 form.
func ReLU(x []float32) int { return 0 }

// LeakyReLU computes nothing here; see the amd64 form.
func LeakyReLU(x []float32, alpha float32) int { return 0 }

// AddScaled computes nothing here; see the amd64 form.
func AddScaled(out, a, b []float32, s float32) int { return 0 }

// Exp computes nothing here; see the amd64 form.
func Exp(x []float32, t *ExpTable) int { return 0 }

// EdgeBinary computes nothing here; see the amd64 form.
func EdgeBinary(op EdgeOp, out []float32, cols, n int, a, b EdgeOperand) int { return 0 }

// SegmentSum computes nothing here; see the amd64 form.
func SegmentSum(out []float32, cols int, data []float32, ptr []int32, base int) int { return 0 }

// SumRows computes nothing here; see the amd64 form.
func SumRows(acc, data []float32, stride, rows int, idx []int32) int { return 0 }

// SumRowsScaled computes nothing here; see the amd64 form.
func SumRowsScaled(acc, data []float32, stride, rows int, idx []int32, w []float32, widx []int32) int {
	return 0
}

// SumSpans computes nothing here; see the amd64 form.
func SumSpans(out []float32, cols int, data []float32, stride, rows int, idx, ptr []int32, base int, mean bool) int {
	return 0
}

// SumSpansScaled computes nothing here; see the amd64 form.
func SumSpansScaled(out []float32, cols int, data []float32, stride, rows int, idx, ptr []int32, base int, w []float32, widx []int32, mean bool) int {
	return 0
}

// MaxRows computes nothing here; see the amd64 form.
func MaxRows(acc, data []float32, stride, rows int, idx []int32, identity float32) int { return 0 }

// MinRows computes nothing here; see the amd64 form.
func MinRows(acc, data []float32, stride, rows int, idx []int32, identity float32) int { return 0 }
