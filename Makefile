GO ?= go

.PHONY: build test test-generic portable-build check bench-obs bench-kernels race race-pinned vet faults obs lint verify serve e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-generic runs the packages that sit on the vector kernels — the graph
# kernels, the dense operators, the compiled-program runtime and the
# whole-model suites — a second time with the kernels off (a flag of those
# test binaries, internal/vec/vectest), so every test there also answers for
# the Go loops a CPU without AVX2 runs.
test-generic:
	$(GO) test ./internal/core/... ./internal/tensor/... ./internal/program/... ./internal/models/... -args -vec.generic

# portable-build proves the tree builds and vets where there are no vector
# kernels: internal/vec's assembly is amd64-only, and every other
# architecture must get the Go loops through its stub file.
portable-build:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...

# vet is go vet plus formatting: any file gofmt would rewrite fails the gate.
vet:
	$(GO) vet ./...
	@out="$$(gofmt -l internal cmd)"; if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# lint runs the repo-invariant source linter (hook discipline, panic
# justification, no-alloc-in-Run, suppression hygiene) over the internal
# and cmd trees. Exit 1 on any unsuppressed finding.
lint:
	$(GO) run ./cmd/ugrapher-lint

# verify compiles every model under every strategy on both host backends
# and runs the IR/plan verifier over each result. Exit 1 on any violation.
verify:
	$(GO) run ./cmd/ugrapher-lint -ir

# race runs the concurrency-sensitive packages (the worker pool, the vector
# kernels' wrappers, the parallel host backend and its consumers, including the compiled-program
# runtime, the hardening layer's fault-injection points, and the graph
# loaders) under the race detector — the row-subset runs' BitDiff matrix on CO
# and PR and the daemon's overlapping-batch tests included. Then the simulator
# and the grid-search tuner, whose candidates run concurrently over pooled
# simulator workspaces: -short keeps the serial-equivalence test to the pruned
# spaces, and eight concurrent searches check against the serial result. CI
# runs it a second time with GOMAXPROCS=4 (job race-e2e-gomaxprocs4) so the
# interleavings are real.
race:
	$(GO) test -race ./internal/workpool/... ./internal/vec/... ./internal/core/... ./internal/models/... ./internal/program/... ./internal/faultinject/... ./internal/graph/... ./internal/telemetry/... ./internal/shard/... ./internal/reorder/... ./internal/tensor/... ./internal/analysis/... ./internal/serve/...
	$(GO) test -race -short ./internal/gpu/... ./internal/schedule/...

# race-pinned runs the timing-sensitive tests — the deadline and cancellation
# suites of the kernels, the compiled program and the models — twelve times
# under the race detector on one CPU, where a pool helper and the caller share
# a core and a context that fires early or late shows (the
# TestDenseStepHonoursDeadlineAndCancel flake of PRs 13-14 only reproduced
# this way) — the row-subset runs' among them (TestRunRowsCancelPanicAndNumerics,
# TestRunRowsHonoursCancelAndDeadline). Then the daemon's row-path ownership
# tests three times the same way: overlapping batches on one CPU, where the
# worker and the handlers that read its rows take turns, and a sharded daemon's
# row runs, whose kernels deal whole shards to the pool. CI runs it as its own
# job.
race-pinned:
	taskset -c 0 $(GO) test -race -count=12 -run 'Cancel|Deadline' ./internal/workpool/... ./internal/core/... ./internal/program/... ./internal/models/...
	taskset -c 0 $(GO) test -race -count=3 -run 'ConcurrentOverlapping|OpenBreakerKeepsTheFullPass|RequestRunsItsClosure|ShardedDaemonRunsRows' ./internal/serve/

# serve runs the HTTP inference daemon (GCN on CO at :8080 by default;
# see cmd/ugrapher-serve for flags and README "Serving quick-start").
serve:
	$(GO) run ./cmd/ugrapher-serve

# e2e runs the black-box serving suite: it builds the real ugrapher-serve
# binary with -race, runs it as a child process, and proves fast 429
# backpressure, breaker-gated degradation with reference-correct outputs,
# and SIGTERM drain ordering from the outside.
e2e:
	$(GO) test -run 'TestE2E' -count=1 -v ./internal/serve/

# faults runs the fault-injection suite under the race detector: injected
# kernel panics, NaN pokes, slow chunks and lowering failures, each proven
# to be caught by the corresponding guard (KernelError recovery, numeric
# scan, deadlines, fallback ladder).
faults:
	$(GO) test -race ./internal/faultinject/...
	$(GO) test -race -run 'Fault|Inject|Resilient|Cancel|Deadline|Numeric|KernelPanic|Revalidate|DenseChunk' ./internal/core/... ./internal/program/... ./internal/models/...

# check is the pre-commit gate: static analysis (go vet, the repo linter,
# the IR/plan verifier) plus the race-enabled tests of the backend-facing
# packages, including the fault suite.
check: vet lint verify race faults

# obs runs the observability suite under the race detector: the telemetry
# package (exporter contracts, bounded buffers, concurrent recording) plus
# the cross-layer tests (kernel-span count vs compiled-program stats,
# causal trace trees through RunCtx, traced zero-alloc, injected-fault
# spans, resilient-fallback surfacing) and the serving-side trace tests.
obs:
	$(GO) test -race ./internal/telemetry/...
	$(GO) test -race -run 'Telemetry|Trace' ./internal/models/...
	$(GO) test -race -run '^Test(Trace|Batch|Error|Untraced)' ./internal/serve/

# bench-obs measures the telemetry hooks' cost around a copy_u.sum kernel
# on AR and PR (enabled vs disabled) and the request-trace cost around a
# compiled GCN forward (disabled / enabled / traced); the budget is <5%.
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetryOverhead|BenchmarkTraceOverhead' .

# bench-kernels is the measurement behind core/span.go's block width and
# program/dense.go's cost constants: the operator shapes the benchmark's
# models run (GCN on AR, Sage on PU, GAT on PR) as the per-edge loop the span
# kernels replaced, as each span form on one worker (in-place, blocked = the
# Go loop, vector = the AVX2 kernel under it at one call per row,
# rows-per-call = the multi-row kernel), and as lowered on one and two
# workers; GAT's two edge-output shapes (u_add_v, e_div_v at eight heads on PR
# and AR) as the Go loop and the vector kernel; then the packed GEMM at the six
# models' shapes, the elementwise operators over Sage's hidden activations
# (sign-random, positive and rectified inputs) and the float32 exponential over
# GAT's logits, each dispatched and with the Go loop forced; last a lowered GAT
# layer, step by step and as one row-resident region, on one and two workers;
# and the row-subset runs: GCN, GAT and GIN on PR and AR answering 4 to 16384
# rows as served, with the row mode forced, and by the full pass — the sweep
# program.rowFullShare is read from.
# EXPERIMENTS.md "Row-span kernels", "Vector kernels", "Dense rewrites",
# "GAT's message path" and "Row-subset runs" record the tables.
bench-kernels:
	$(GO) test -run '^$$' -bench 'BenchmarkSpanKernel|BenchmarkEdgeWriter' -benchtime 20x ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkGemmPacked|BenchmarkElementwise|BenchmarkExp' -benchtime 20x ./internal/tensor/
	$(GO) test -run '^$$' -bench BenchmarkGATLayer -benchtime 20x ./internal/models/
	$(GO) test -run '^$$' -bench BenchmarkRunRows -benchtime 20x ./internal/program/
