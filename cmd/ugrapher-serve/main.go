// Command ugrapher-serve is the inference daemon: it loads named models,
// compiles one program per model, and serves JSON inference over HTTP with
// admission control, one forward pass per request, a fallback onto the
// reference interpreter for failing kernels and graceful drain (DESIGN.md
// §13).
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
// requests get 503, in-flight requests finish under -drain-timeout, then the
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

	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// version identifies the build in ugrapher_build_info (no VCS stamping in
// this build pipeline; bump by hand with releases).
const version = "0.9.0"

// maxQueueDepth bounds the -queue flag: a queue channel of this size is
// preallocated per model, so the cap keeps a fat-fingered flag from pinning
// gigabytes at startup.
const maxQueueDepth = 1 << 16

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	modelsFlag := flag.String("models", "GCN", "comma-separated model names to serve (GCN, GIN, GAT, SSum, SMax, SMean)")
	dataset := flag.String("dataset", "CO", "dataset code from Table 3 the models serve")
	feat := flag.Int("feat", 16, "input feature width")
	classes := flag.Int("classes", 8, "output classes")
	shards := flag.Int("shards", 1, "graph shards for the parallel backend: 0 = auto-size, 1 = unsharded, N = fixed count; workers = GOMAXPROCS")
	queue := flag.Int("queue", 64, "per-model admission queue depth; full queue rejects with 429")
	reqTimeout := flag.Duration("timeout", 2*time.Second, "default per-request deadline when the request carries no timeout_ms")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "upper bound on any request's deadline")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful drain budget after SIGTERM")
	faults := flag.String("faults", "", "arm fault-injection points, e.g. 'queue-stall:after=1,limit=1,delay=2s;kernel-panic-load:every=1' (testing)")
	debugAddr := flag.String("debug-addr", "", "operator-only debug listener with net/http/pprof (host:port; empty = off; never the serving port)")
	tracePath := flag.String("trace", "", "write the collected Chrome trace-event JSON here after drain (openable in Perfetto)")
	flag.Parse()

	// Exit codes: 1 = startup/serve error, 2 = usage (bad flags). A drained
	// SIGTERM exit is 0.
	if *shards < 0 || *shards > shard.MaxShards {
		fmt.Fprintf(os.Stderr, "ugrapher-serve: invalid -shards %d (valid: 0 (auto) through %d; 1 = unsharded)\n", *shards, shard.MaxShards)
		os.Exit(2)
	}
	// serve.New substitutes its default for a non-positive size or
	// duration; the CLI rejects one instead so a typo'd unit file fails loud
	// at startup rather than running with a surprise configuration.
	if *queue < 1 || *queue > maxQueueDepth {
		fmt.Fprintf(os.Stderr, "ugrapher-serve: invalid -queue %d (valid: 1 through %d)\n", *queue, maxQueueDepth)
		os.Exit(2)
	}
	for _, f := range []struct {
		name  string
		ok    bool
		value any
	}{
		{"feat", *feat > 0, *feat},
		{"classes", *classes > 0, *classes},
		{"timeout", *reqTimeout > 0, *reqTimeout},
		{"max-timeout", *maxTimeout > 0, *maxTimeout},
		{"drain-timeout", *drainTimeout > 0, *drainTimeout},
	} {
		if !f.ok {
			fmt.Fprintf(os.Stderr, "ugrapher-serve: invalid -%s %v (must be positive)\n", f.name, f.value)
			os.Exit(2)
		}
	}
	if *faults != "" {
		if err := faultinject.ParseAndArm(*faults); err != nil {
			fmt.Fprintf(os.Stderr, "ugrapher-serve: -faults: %v\n", err)
			os.Exit(2)
		}
	}
	// A daemon always collects: forward spans and the serving counters are
	// the operator's only window into it.
	telemetry.SetEnabled(true)
	// The global event buffer exists to be written out by -trace. Without a
	// path nothing ever reads it, and at a few spans per request it is the
	// daemon's largest allocation within minutes (2^19 events of ~112 bytes):
	// keep it only when it has a destination. Request trees, exemplars,
	// histograms and counters do not go through it.
	telemetry.Default().SetEventRetention(*tracePath != "")
	telemetry.Default().SetBuildInfo(version, "parallel")

	cfg := serve.Config{
		Dataset:        *dataset,
		Models:         strings.Split(*modelsFlag, ","),
		Feat:           *feat,
		Classes:        *classes,
		Shards:         *shards,
		QueueDepth:     *queue,
		DefaultTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		DrainTimeout:   *drainTimeout,
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
	// The handler is in place before the daemon can be reached: a SIGTERM
	// right after the handshake drains like any other.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
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

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("received %v; draining (budget %v)\n", sig, cfg.DrainTimeout)
	}
	// Drain first — the listener stays open so /healthz and /readyz keep
	// answering while in-flight requests finish — then close the listener.
	drainErr := s.Drain(cfg.DrainTimeout)
	// Every admitted request has its answer now. Shutdown still waits on a
	// response being written out, and on a dialed, never used connection
	// for five seconds: give the writes a second, then close the rest.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if srv.Shutdown(ctx) != nil {
		srv.Close()
	}
	if debugSrv != nil {
		debugSrv.Close()
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
