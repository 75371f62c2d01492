package main

// The fixed vocabulary of the benchmark: workload and metric names that
// BENCHMARK.json, the README and later issues refer to. bench_test.go pins
// BENCHMARK.json to these tables.

// metricDef describes one named metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare calls it a regression (0 for
	// per-layer metrics, which gate nothing).
	Bound float64
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Every workload reports every one of them (the README says what each
// means on each kind of workload). The bounds are about three times the
// widest quartile spread ten seeds gave on the 2-CPU shared host the
// benchmark was written on (README "Bounds"), not the tighter ones the
// issue proposed from two prototype runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"fwd_ms_p50", "ms", "lower", 0.20},
	{"fwd_per_s", "1/s", "higher", 0.20},
	{"lat_ms_p50", "ms", "lower", 0.25},
	{"lat_ms_p90", "ms", "lower", 0.25},
	{"goodput_rps", "1/s", "higher", 0.20},
	{"rss_mb_peak", "MiB", "lower", 0.25},
}

// perLayer are the traced-run metrics, one Go package per prefix. A metric
// that does not apply to a workload (serve.* on an in-process workload, an
// arm the workload does not run) reads 0.
var perLayer = []metricDef{
	{Name: "machine.copy_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "machine.gemm_gflops", Unit: "GFLOP/s", Better: "higher"},

	{Name: "datasets.load_ms", Unit: "ms", Better: "lower"},
	{Name: "models.record_ms", Unit: "ms", Better: "lower"},
	{Name: "models.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "program.fuse_ms", Unit: "ms", Better: "lower"},
	{Name: "program.plan_buffers_ms", Unit: "ms", Better: "lower"},
	{Name: "program.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "program.compile_other_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.tune_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.tune_calls", Unit: "count", Better: "lower"},
	{Name: "schedule.candidates", Unit: "count", Better: "lower"},
	{Name: "gpu.sim_ms_per_candidate", Unit: "ms", Better: "lower"},
	{Name: "core.lower_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.pack_ms", Unit: "ms", Better: "lower"},

	{Name: "program.steps", Unit: "count", Better: "lower"},
	{Name: "program.graph_kernels", Unit: "count", Better: "lower"},
	{Name: "program.fused_regions", Unit: "count", Better: "higher"},
	{Name: "program.waves", Unit: "count", Better: "lower"},
	{Name: "program.wave_width_max", Unit: "count", Better: "higher"},
	{Name: "program.arena_mb", Unit: "MiB", Better: "lower"},

	{Name: "program.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "program.run_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "program.step_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "program.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "program.bytes_per_run", Unit: "B", Better: "lower"},

	{Name: "core.agg_ms", Unit: "ms", Better: "lower"},
	{Name: "core.msg_ms", Unit: "ms", Better: "lower"},
	{Name: "core.kernel_share", Unit: "ratio", Better: "lower"},
	{Name: "core.edges_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.kernel_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "core.kernel_roof_share", Unit: "ratio", Better: "higher"},

	{Name: "tensor.gemm_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.gemm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_roof_share", Unit: "ratio", Better: "higher"},
	{Name: "tensor.elementwise_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.elementwise_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.dense_share", Unit: "ratio", Better: "lower"},

	{Name: "shard.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.edge_cut", Unit: "ratio", Better: "lower"},
	{Name: "shard.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "program.wave_run_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "serve.stage_ms.admission", Unit: "ms", Better: "lower"},
	{Name: "serve.stage_ms.queue_wait", Unit: "ms", Better: "lower"},
	{Name: "serve.stage_ms.batch_wait", Unit: "ms", Better: "lower"},
	{Name: "serve.stage_ms.kernel", Unit: "ms", Better: "lower"},
	{Name: "serve.stage_ms.respond", Unit: "ms", Better: "lower"},
	{Name: "serve.compile_s", Unit: "s", Better: "lower"},
	{Name: "serve.batch_mean", Unit: "count", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.timeouts", Unit: "count", Better: "lower"},
	{Name: "serve.degraded", Unit: "count", Better: "lower"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cpu_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "serve.useful_row_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.lat_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.stored.lat_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.custom.lat_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.req_body_kb_mean", Unit: "KiB", Better: "lower"},

	{Name: "loadgen.sent", Unit: "count", Better: "higher"},
	{Name: "loadgen.late_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// workload is one named set of inputs. In-process workloads time
// program.CompiledProgram.Run in a child of this binary; serve workloads
// drive the real cmd/ugrapher-serve binary over HTTP.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string

	Dataset string
	Feat    int
	Classes int
	// Models holds one model for an in-process workload and the served set
	// for a serve workload.
	Models []string
	Serve  bool

	// ShardArm and WaveArm switch on the traced run's other-setting arms.
	ShardArm, WaveArm bool

	// RatePerS > 0 makes the load open loop at that arrival rate; 0 is a
	// closed loop over runtime.NumCPU() keep-alive connections.
	RatePerS float64
	// SecondShare is the share of open-loop requests aimed at Models[1].
	SecondShare float64
	// CustomShare is the share of open-loop requests that carry their own
	// feature matrix (run solo and unbatched by the daemon).
	CustomShare float64
	// LimitMS is the latency limit a response must meet to count as goodput.
	LimitMS float64
}

// verticesPerRequest is how many vertex ids each inference request asks for.
const verticesPerRequest = 4

// warmupOps is how many untimed operations end every set-up.
const warmupOps = 3

var workloads = []workload{
	{
		Name: "gcn-skew", Dataset: "AR", Feat: 32, Classes: 8, Models: []string{"GCN"}, ShardArm: true,
		Why: "GCN on AR (1.64M edges, skewed): core aggregation kernels are ~85% of a pass, tensor almost none; shows kernel, fusion-epilogue and schedule-choice work",
	},
	{
		Name: "gat-attn", Dataset: "PR", Feat: 32, Classes: 8, Models: []string{"GAT"}, WaveArm: true,
		Why: "GAT on PR (regular): edge-output message kernels and softmax chains, 16 steps, the only width-2 wave schedule; shows step-loop and edge-kernel work",
	},
	{
		Name: "sage-dense", Dataset: "PU", Feat: 32, Classes: 8, Models: []string{"SMean"},
		Why: "SageMean on PU, hidden 256: packed GEMM, concat and elementwise are most of a pass and no region fuses; bypass for kernel work, target for dense work, largest arena",
	},
	{
		Name: "serve-stored", Dataset: "PR", Feat: 16, Classes: 8, Models: []string{"GCN"}, Serve: true, LimitMS: 100,
		Why: "real daemon, closed loop, nproc connections, 4 stored-feature vertices per request: the forward pass dominates; with nproc=2 connections batches cannot form",
	},
	{
		Name: "serve-mixed", Dataset: "CO", Feat: 16, Classes: 8, Models: []string{"GCN", "GAT"}, Serve: true,
		RatePerS: 100, SecondShare: 0.1, CustomShare: 0.2, LimitMS: 60,
		Why: "real daemon, open loop 100 req/s, 90/10 GCN/GAT, 20% carry a 466 KB feature matrix: HTTP, JSON and queueing dominate; p50 is stored reads, p90 caller features",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
