//go:build race

package program_test

// raceBuild reports that the race detector is compiled in. It slows the
// kernels about twentyfold, so the row-subset matrices leave AR, their one
// large graph, to the plain build: a row run is one goroutine, and what the
// detector is there for — the full pass's pool and the daemon's ownership of
// the output — it sees on CO and PR and in internal/serve.
const raceBuild = true
