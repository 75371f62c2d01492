// Command ugrapher-serve is the inference daemon: it loads named models,
// compiles one program per model, and serves JSON inference over HTTP with
// admission control, request batching, per-model circuit breaking and
// graceful drain (DESIGN.md §13).
//
// Examples:
//
//	ugrapher-serve                                  # GCN on CO at :8080
//	ugrapher-serve -models GCN,GAT -dataset CO -addr 127.0.0.1:9090
//	curl -s localhost:8080/v1/infer -d '{"model":"GCN","vertices":[0,1,2]}'
//	curl -s localhost:8080/metrics
//
// Endpoints: POST /v1/infer, GET /v1/models, /healthz, /readyz, /metrics,
// /debug/requests (tail-sampled slow/error span trees). -debug-addr opens a
// second, operator-only listener carrying net/http/pprof — never the serving
// port, so profiling cannot be reached from the service's exposure surface.
// SIGTERM (or SIGINT) starts a graceful drain: /readyz flips unready, new
// requests get 503, in-flight batches finish under -drain-timeout, then the
// process exits 0. With -trace, the collected causal trace (one span tree
// per request; see DESIGN.md §8) is written as Chrome trace-event JSON after
// the drain, openable in Perfetto.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// version identifies the build in ugrapher_build_info (no VCS stamping in
// this build pipeline; bump by hand with releases).
const version = "0.9.0"

// maxQueueDepth and maxBatchSize bound the -queue and -batch flags: a queue
// channel and batch slice of these sizes are preallocated per model, so the
// caps keep a fat-fingered flag from pinning gigabytes at startup.
const (
	maxQueueDepth = 1 << 16
	maxBatchSize  = 1024
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	modelsFlag := flag.String("models", "GCN", "comma-separated model names to serve (GCN, GIN, GAT, SSum, SMax, SMean)")
	dataset := flag.String("dataset", "CO", "dataset code from Table 3 the models serve")
	feat := flag.Int("feat", 16, "input feature width")
	classes := flag.Int("classes", 8, "output classes")
	shards := flag.Int("shards", -1, "graph shards for the parallel backend: 0 = auto-size, 1 = unsharded, N = fixed count (-1 = $UGRAPHER_SHARDS / 1)")
	queue := flag.Int("queue", 64, "per-model admission queue depth; full queue rejects with 429")
	batch := flag.Int("batch", 8, "max requests coalesced into one forward pass")
	reqTimeout := flag.Duration("timeout", 2*time.Second, "default per-request deadline when the request carries no timeout_ms")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "upper bound on any request's deadline")
	breakerN := flag.Int("breaker-threshold", 3, "consecutive kernel failures that trip a model's circuit breaker")
	breakerCool := flag.Duration("breaker-cooldown", 2*time.Second, "open breaker cooldown before a half-open probe")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful drain budget after SIGTERM")
	parallelSteps := flag.Bool("parallel-steps", false, "execute provably independent compiled steps concurrently (verified wave schedule)")
	faults := flag.String("faults", "", "arm fault-injection points, e.g. 'queue-stall:after=1,limit=1,delay=2s;kernel-panic-load:every=1' (testing)")
	debugAddr := flag.String("debug-addr", "", "operator-only debug listener with net/http/pprof (host:port; empty = off; never the serving port)")
	tracePath := flag.String("trace", "", "write the collected Chrome trace-event JSON here after drain (openable in Perfetto)")
	flag.Parse()

	// Exit codes: 1 = startup/serve error, 2 = usage (bad flags or
	// environment). A drained SIGTERM exit is 0.
	if err := core.ValidateEnvShards(); err != nil {
		fmt.Fprintf(os.Stderr, "ugrapher-serve: %v\n", err)
		os.Exit(2)
	}
	if err := core.ValidateEnvWorkers(); err != nil {
		fmt.Fprintf(os.Stderr, "ugrapher-serve: %v\n", err)
		os.Exit(2)
	}
	// serve.New silently substitutes defaults for non-positive queue/batch
	// values; the CLI rejects them instead so a typo'd unit file fails loud
	// at startup rather than running with a surprise configuration.
	if *queue < 1 || *queue > maxQueueDepth {
		fmt.Fprintf(os.Stderr, "ugrapher-serve: invalid -queue %d (valid: 1 through %d)\n", *queue, maxQueueDepth)
		os.Exit(2)
	}
	if *batch < 1 || *batch > maxBatchSize {
		fmt.Fprintf(os.Stderr, "ugrapher-serve: invalid -batch %d (valid: 1 through %d)\n", *batch, maxBatchSize)
		os.Exit(2)
	}
	program.SetParallelSteps(*parallelSteps)
	if *faults != "" {
		if err := faultinject.ParseAndArm(*faults); err != nil {
			fmt.Fprintf(os.Stderr, "ugrapher-serve: -faults: %v\n", err)
			os.Exit(2)
		}
	}
	// A daemon always collects: breaker transitions, batch spans and the
	// serving counters are the operator's only window into it.
	telemetry.SetEnabled(true)
	// The global event buffer exists to be written out by -trace. Without a
	// path nothing ever reads it, and at a few spans per request it is the
	// daemon's largest allocation within minutes (2^19 events of ~112 bytes):
	// keep it only when it has a destination. Request trees, exemplars,
	// histograms and counters do not go through it.
	telemetry.Default().SetEventRetention(*tracePath != "")
	telemetry.Default().SetBuildInfo(version, "parallel")

	cfg := serve.Config{
		Dataset:          *dataset,
		Models:           strings.Split(*modelsFlag, ","),
		Feat:             *feat,
		Classes:          *classes,
		Shards:           *shards,
		QueueDepth:       *queue,
		MaxBatch:         *batch,
		DefaultTimeout:   *reqTimeout,
		MaxTimeout:       *maxTimeout,
		BreakerThreshold: *breakerN,
		BreakerCooldown:  *breakerCool,
		DrainTimeout:     *drainTimeout,
	}
	if err := run(cfg, *addr, *debugAddr, *tracePath); err != nil {
		fmt.Fprintf(os.Stderr, "ugrapher-serve: %v\n", err)
		os.Exit(1)
	}
}

// debugMux builds the operator-only pprof mux. The handlers are registered
// on a private mux — not http.DefaultServeMux — so nothing else can
// accidentally expose them, and they exist only on the -debug-addr listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(cfg serve.Config, addr, debugAddr, tracePath string) error {
	compileStart := time.Now()
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("models compiled and warmed up in %v\n", time.Since(compileStart).Round(time.Millisecond))
	// The "listening on" line is the readiness handshake scripts and the
	// e2e suite key on (port 0 resolves here).
	fmt.Printf("listening on %s\n", ln.Addr())

	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// The debug listener is strictly separate from the serving port: pprof
	// never rides the mux that admission control and the load balancer see.
	var debugSrv *http.Server
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Printf("debug listening on %s\n", dln.Addr())
		debugSrv = &http.Server{Handler: debugMux()}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "ugrapher-serve: debug listener: %v\n", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("received %v; draining (budget %v)\n", sig, cfg.DrainTimeout)
	}
	// Drain first — the listener stays open so /healthz and /readyz keep
	// answering while in-flight batches finish — then close the listener.
	drainErr := s.Drain(cfg.DrainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(ctx)
	}
	// The trace is written after the drain so in-flight requests' span
	// trees are complete; a failed drain still writes what was collected.
	if tracePath != "" {
		opts := telemetry.CLIOptions{TracePath: tracePath}
		if err := opts.Finish(os.Stdout); err != nil && drainErr == nil {
			drainErr = err
		}
		fmt.Printf("trace written to %s\n", tracePath)
	}
	if drainErr != nil {
		return drainErr
	}
	fmt.Println("drained; exiting")
	return nil
}
