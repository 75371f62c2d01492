//go:build race

package core

// raceBuild reports that the race detector is compiled in. It slows the
// kernel loops about tenfold, so the widest test matrix trims itself.
const raceBuild = true
