// Package vectest lets a test suite run once per kernel set.
package vectest

import (
	"flag"
	"testing"

	"repro/internal/vec"
)

// generic is a flag of the test binaries whose TestMain is Main: CI runs the
// tensor, program and models suites a second time with it (`make
// test-generic`), so every test there — not only the ones written around
// EachKernelSet — also answers for the Go loops a CPU without AVX2 runs.
var generic = flag.Bool("vec.generic", false, "run every test with the vector kernels off (the Go loops)")

// Main is a TestMain body: m.Run(), with the vector kernels off for the whole
// run when the binary was given -vec.generic.
//
//lint:allow unread -- the TestMain of the core, tensor, program and models tests
func Main(m *testing.M) int {
	flag.Parse()
	if *generic {
		var restore cleanups
		vec.ForceGeneric(&restore)
		defer restore.run()
	}
	return m.Run()
}

// cleanups stands in for a test handle where there is none yet.
type cleanups []func()

func (c *cleanups) Cleanup(f func()) { *c = append(*c, f) }

func (c cleanups) run() {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]()
	}
}

// EachKernelSet runs f as a subtest named after the kernels this CPU
// dispatches to ("avx2" or "generic") and, when those are the vector
// kernels, again as "generic" with the Go loops forced, so that both sets
// answer to the same assertions.
//
//lint:allow unread -- the kernel tests of core, tensor, program and models run both kernel sets through it
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
