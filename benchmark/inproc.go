package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/program"
	"repro/internal/tensor"
)

// In-process workloads: one process loads a dataset, compiles one model with
// the configuration serve.New and `ugrapher -model` use (tuned engine,
// parallel backend, workers = NumCPU, shards = 1, sequential steps) and
// times CompiledProgram.Run in a closed loop with one caller.

// defaultShards is the shard count of the default configuration.
const defaultShards = 1

// tolerance is the equivalence suites' bound: outputs must match the
// reference interpreter within 1e-4 absolute and relative.
const tolerance = 1e-4

// inproc is a set-up in-process workload, ready for its first timed Run.
type inproc struct {
	g       *graph.Graph
	x       *tensor.Dense
	model   models.Model
	eng     *models.TunedEngine
	backend core.ExecBackend
	cp      *program.CompiledProgram
	// first is a copy of the last warm-up pass's output: every timed pass
	// must reproduce it, and it must itself match the reference.
	first *tensor.Dense
}

// newBackend builds the default host backend.
func newBackend() core.ExecBackend { return core.NewShardedParallelBackend(0, defaultShards) }

// features draws the seeded input matrix.
func features(rows, cols int, seed int64) *tensor.Dense {
	x := tensor.NewDense(rows, cols)
	x.FillRandom(rand.New(rand.NewSource(seed)), 1)
	return x
}

// setupInproc is the whole set-up a user waits for: dataset load, features,
// models.CompileModel and the warm-up passes.
func setupInproc(w workload, seed int64) (*inproc, error) {
	g, _, err := datasets.Load(w.Dataset)
	if err != nil {
		return nil, err
	}
	m, err := models.ByName(w.Models[0])
	if err != nil {
		return nil, err
	}
	s := &inproc{g: g, model: m, x: features(g.NumVertices(), w.Feat, seed), backend: newBackend()}
	s.eng = models.NewTunedEngine(gpu.V100())
	s.eng.Compute = s.backend
	if s.cp, err = models.CompileModel(m, g, w.Feat, w.Classes, s.eng); err != nil {
		return nil, err
	}
	return s, s.warmup()
}

func (s *inproc) warmup() error {
	for i := 0; i < warmupOps; i++ {
		out, err := s.cp.Run(s.x)
		if err != nil {
			return err
		}
		if i == warmupOps-1 {
			s.first = out.Clone()
		}
	}
	return nil
}

// timedRuns runs the program in a closed loop until the deadline (at least
// minRuns passes) and returns each pass's wall time in ms. The output check
// sits between passes, outside the timed interval; a pass that errs or
// strays from the warm-up output counts as failed.
func (s *inproc) timedRuns(d time.Duration, minRuns int, tr *tracer, parent int) (ms []float64, failed int) {
	deadline := time.Now().Add(d)
	for len(ms)+failed < minRuns || time.Now().Before(deadline) {
		id := tr.begin("program.run", parent)
		start := time.Now()
		out, err := s.cp.Run(s.x)
		took := time.Since(start)
		tr.end(id)
		if err != nil || !out.AllClose(s.first, tolerance, tolerance) {
			failed++
			continue
		}
		ms = append(ms, float64(took)/1e6)
	}
	return ms, failed
}

// referenceForward is the oracle: the op-by-op interpreter on the sequential
// reference backend, under a fixed schedule (schedules never change
// functional results, and a fixed one skips the grid search).
func referenceForward(m models.Model, g *graph.Graph, x *tensor.Dense, classes int) (*tensor.Dense, error) {
	eng := &models.FixedEngine{
		EngineName: "oracle", Dev: gpu.V100(),
		AggrSchedule: core.DefaultSchedule, MsgCSchedule: core.DefaultSchedule,
		Fuses: true, Compute: core.ReferenceBackend(),
	}
	return models.ForwardCtx(context.Background(), m, g, x, classes, eng)
}

// checkOracle compares the warm-up output, which every counted pass
// reproduced, against the reference interpreter.
func (s *inproc) checkOracle(classes int) error {
	want, err := referenceForward(s.model, s.g, s.x, classes)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if !s.first.AllClose(want, tolerance, tolerance) {
		return fmt.Errorf("oracle: compiled output differs from the reference interpreter (max diff %g)", s.first.MaxDiff(want))
	}
	return nil
}

// childReport is what an in-process child hands its parent on the RESULT
// line: its phase when untraced, per-layer metrics and step rows when traced.
type childReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Samples   map[string]int     `json:"samples"`
	Phase     *phase             `json:"phase,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Steps     []stepRow          `json:"steps,omitempty"`
}

// measureInproc is the untraced measured phase. One caller, closed loop: a
// pass's wall time is the caller's latency, every correct pass is goodput,
// and the measured seconds are those spent in Run (the checks between
// passes are the benchmark's, not the program's).
func measureInproc(s *inproc, w workload, o options) childReport {
	ms, failed := s.timedRuns(o.phase(), 1, nil, 0)
	// The peak is read before the oracle runs: the interpreter allocates a
	// tensor per op and would count against the program under test.
	ph := &phase{RSSMiB: peakRSSMiB(os.Getpid())}
	rep := childReport{Attempted: len(ms) + failed, Failed: failed, Phase: ph}
	if err := s.checkOracle(w.Classes); err != nil {
		rep.Failed, rep.Error = rep.Attempted, err.Error()
		return rep
	}
	for _, v := range ms {
		ph.Seconds += v / 1e3
	}
	ph.LatMS, ph.FwdMS, ph.Good, ph.Passes = ms, ms, len(ms), float64(len(ms))
	rep.Samples = map[string]int{"fwd_ms": len(ms)}
	return rep
}

// peakRSSMiB reads VmHWM, the peak resident set, of a live process.
func peakRSSMiB(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64) // "VmHWM:  123456 kB"
			return kb / 1024
		}
	}
	return 0
}

// memDelta runs f and returns the heap allocations and bytes it made.
func memDelta(f func()) (allocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}
