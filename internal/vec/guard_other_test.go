//go:build !linux

package vec

import "testing"

// guarded has no guard page to offer here: a plain slice.
func guarded(t testing.TB, n int) []float32 { return make([]float32, n) }
