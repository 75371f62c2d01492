package vec

import (
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestDetectAgreesWithKernel: where the kernel publishes the CPU's flags,
// the CPUID + XGETBV decision matches its "avx2" flag (Linux lists avx2 only
// when it also saves the YMM state).
func TestDetectAgreesWithKernel(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if detect() {
			t.Fatalf("detect() = true on %s, which has no kernels", runtime.GOARCH)
		}
		return
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	want := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "flags") {
			want = strings.Contains(" "+line+" ", " avx2 ")
			break
		}
	}
	if got := detect(); got != want {
		t.Fatalf("detect() = %v, /proc/cpuinfo says avx2 = %v", got, want)
	}
}

// TestForceGeneric: the seam turns every kernel into "did nothing" for the
// test that asked, and the decision comes back when that test ends.
func TestForceGeneric(t *testing.T) {
	was := ISA()
	t.Run("forced", func(t *testing.T) {
		ForceGeneric(t)
		if ISA() != "generic" || Enabled() {
			t.Fatalf("ISA() = %q after ForceGeneric", ISA())
		}
		acc := make([]float32, 8)
		data := []float32{1, 2, 3, 4, 5, 6, 7, 8}
		if n := SumRows(acc, data, 8, 1, []int32{0}); n != 0 {
			t.Fatalf("SumRows finished %d columns with the kernels forced off", n)
		}
		if n := SumSpans(acc, 8, data, 8, 1, []int32{0}, []int32{0, 1}, 0, false); n != 0 {
			t.Fatalf("SumSpans finished %d rows with the kernels forced off", n)
		}
		if n := GemmPanels(make([]float32, 32), make([]float32, 4), make([]float32, 8), 0, 4, 1, 8); n != 0 {
			t.Fatalf("GemmPanels finished %d panels with the kernels forced off", n)
		}
	})
	if ISA() != was {
		t.Fatalf("ISA() = %q after the forcing test ended, want %q back", ISA(), was)
	}
}

func needKernels(t *testing.T) {
	t.Helper()
	if !Enabled() {
		t.Skip("no vector kernels on this CPU")
	}
}

// TestSpanKernelsRefuseWhatTheyCannotBound: a call whose arguments do not
// prove every in-range index in-bounds does nothing (the Go form decides),
// and an index outside [0, rows) — past the end, negative, the most negative
// — is reported, never dereferenced.
func TestSpanKernelsRefuseWhatTheyCannotBound(t *testing.T) {
	needKernels(t)
	const stride, rows = 16, 5
	data := make([]float32, stride*rows)
	for i := range data {
		data[i] = float32(i)
	}
	acc := make([]float32, stride)
	idx := []int32{0, 4, 2}
	w := []float32{1, 2, 3}
	kernels := map[string]func(acc, data []float32, stride, rows int, idx []int32) int{
		"sum": SumRows,
		"scaled": func(acc, data []float32, stride, rows int, idx []int32) int {
			return SumRowsScaled(acc, data, stride, rows, idx, w, []int32{0, 1, 2}[:len(idx)])
		},
		"max": func(acc, data []float32, stride, rows int, idx []int32) int {
			return MaxRows(acc, data, stride, rows, idx, -math.MaxFloat32)
		},
		"min": func(acc, data []float32, stride, rows int, idx []int32) int {
			return MinRows(acc, data, stride, rows, idx, math.MaxFloat32)
		},
	}
	for name, k := range kernels {
		if n := k(acc, data, stride, rows, idx); n != stride {
			t.Errorf("%s: finished %d of %d columns on a well-formed call", name, n, stride)
		}
		for what, n := range map[string]int{
			"no edges":               k(acc, data, stride, rows, nil),
			"rows beyond the data":   k(acc, data, stride, rows+1, idx),
			"no rows":                k(acc, data, stride, 0, idx),
			"stride under the width": k(acc, data, stride/2, rows, idx),
			"stride 0 (a Dst_V row)": k(acc, data, 0, rows, idx),
		} {
			if n != 0 {
				t.Errorf("%s, %s: finished %d columns, want 0", name, what, n)
			}
		}
		for _, bad := range []int32{rows, -1, math.MinInt32, math.MaxInt32} {
			if n := k(acc, data, stride, rows, []int32{0, bad, 1}); n != -1 {
				t.Errorf("%s: index %d of %d rows reported %d, want -1", name, bad, rows, n)
			}
		}
	}
	if n := SumRowsScaled(acc, data, stride, rows, idx, w, []int32{0, 3, 1}); n != -1 {
		t.Errorf("scaled: scalar index 3 of 3 reported %d, want -1", n)
	}
	if n := SumRowsScaled(acc, data, stride, rows, idx, w, []int32{0, 1}); n != 0 {
		t.Errorf("scaled: a scalar index list shorter than the edge list finished %d columns", n)
	}

	// The multi-row forms refuse the same calls, and a bad index in row 1 —
	// or a segment that runs backwards or past the index array — stops them
	// after row 0.
	out := make([]float32, 3*stride)
	ptr := []int32{0, 2, 5, 6}
	spans := map[string]func(out, data []float32, cols, stride, rows int, idx, ptr []int32) int{
		"sum spans": func(out, data []float32, cols, stride, rows int, idx, ptr []int32) int {
			return SumSpans(out, cols, data, stride, rows, idx, ptr, 0, false)
		},
		"scaled spans": func(out, data []float32, cols, stride, rows int, idx, ptr []int32) int {
			return SumSpansScaled(out, cols, data, stride, rows, idx, ptr, 0, w, []int32{0, 1, 2, 0, 1, 2}, true)
		},
	}
	six := []int32{0, 4, 2, 1, 3, 0}
	for name, k := range spans {
		if n := k(out, data, stride, stride, rows, six, ptr); n != 3 {
			t.Errorf("%s: finished %d of 3 rows on a well-formed call", name, n)
		}
		for what, n := range map[string]int{
			"no rows":                k(out, data, stride, stride, rows, six, ptr[:1]),
			"output too short":       k(out[:2*stride], data, stride, stride, rows, six, ptr),
			"rows beyond the data":   k(out, data, stride, stride, rows+1, six, ptr),
			"no data rows":           k(out, data, stride, stride, 0, six, ptr),
			"stride under the width": k(out, data, stride, stride/2, rows, six, ptr),
			"width not a multiple":   k(out, data, 12, stride, rows, six, ptr),
		} {
			if n != 0 {
				t.Errorf("%s, %s: finished %d rows, want 0", name, what, n)
			}
		}
		for _, bad := range []int32{rows, -1, math.MinInt32, math.MaxInt32} {
			if n := k(out, data, stride, stride, rows, []int32{0, 4, 2, bad, 3, 0}, ptr); n != 1 {
				t.Errorf("%s: index %d of %d rows in row 1 finished %d rows, want 1", name, bad, rows, n)
			}
		}
		for what, p := range map[string][]int32{
			"backwards":      {0, 2, 1, 6},
			"past the index": {0, 2, 7, 7},
		} {
			if n := k(out, data, stride, stride, rows, six, p); n != 1 {
				t.Errorf("%s: row 1 running %s finished %d rows, want 1", name, what, n)
			}
		}
	}
	if n := SumSpansScaled(out, stride, data, stride, rows, six, ptr, 0, w, []int32{0, 1, 2, 3, 0, 1}, false); n != 1 {
		t.Errorf("scaled spans: scalar index 3 of 3 in row 1 finished %d rows, want 1", n)
	}
	if n := SumSpansScaled(out, stride, data, stride, rows, six, ptr, 0, w, []int32{0, 1, 2, 0}, false); n != 1 {
		t.Errorf("scaled spans: a scalar index list ending in row 1 finished %d rows, want 1", n)
	}
	if n := SumSpansScaled(out, stride, data, stride, rows, six, ptr, 0, nil, nil, false); n != 0 {
		t.Errorf("scaled spans: no scalars finished %d rows, want 0", n)
	}
}

// TestGemmPanelsRefusesWhatItCannotBound: slices shorter than the row range
// and shape claim do nothing; a range too short for the four-row form still
// finishes every panel, one row at a time.
func TestGemmPanelsRefusesWhatItCannotBound(t *testing.T) {
	needKernels(t)
	const m, k, n = 6, 3, 40 // five whole panels: one block of four and one left
	a := make([]float32, m*k)
	out := make([]float32, m*n)
	panels := make([]float32, (n/8)*k*8)
	if got := GemmPanels(out, a, panels, 0, m, k, n); got != 5 {
		t.Fatalf("finished %d panels of 5 on a well-formed call", got)
	}
	if got := GemmPanels(out, a, panels, 2, 5, k, n); got != 5 {
		t.Errorf("three rows: finished %d panels of 5; the panel past the block of 4 goes one row at a time", got)
	}
	for what, got := range map[string]int{
		"short a":      GemmPanels(out, a[:m*k-1], panels, 0, m, k, n),
		"short out":    GemmPanels(out[:m*n-1], a, panels, 0, m, k, n),
		"short panels": GemmPanels(out, a, panels[:len(panels)-1], 0, m, k, n),
		"k = 0":        GemmPanels(out, a, panels, 0, m, 0, n),
		"empty range":  GemmPanels(out, a, panels, 3, 3, k, n),
		"negative lo":  GemmPanels(out, a, panels, -1, m, k, n),
		"n under 8":    GemmPanels(out, a, panels, 0, m, k, 7),
	} {
		if got != 0 {
			t.Errorf("%s: finished %d panels, want 0", what, got)
		}
	}
}
