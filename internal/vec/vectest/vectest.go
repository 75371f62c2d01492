// Package vectest lets a test suite run once per kernel set.
package vectest

import (
	"testing"

	"repro/internal/vec"
)

// EachKernelSet runs f as a subtest named after the kernels this CPU
// dispatches to ("avx2" or "generic") and, when those are the vector
// kernels, again as "generic" with the Go loops forced, so that both sets
// answer to the same assertions.
func EachKernelSet(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Run(vec.ISA(), f)
	if vec.Enabled() {
		t.Run("generic", func(t *testing.T) {
			vec.ForceGeneric(t)
			f(t)
		})
	}
}
