//go:build race

package models

// raceBuild reports that the race detector is compiled in. It slows the
// GEMM loops about twentyfold, so the widest test matrices trim themselves.
const raceBuild = true
