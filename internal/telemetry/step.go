package telemetry

import (
	"slices"
	"time"
)

// MetricStepWall is the per-step wall-time histogram family of compiled
// programs, labelled by model and step name: dense steps (GEMM, elementwise)
// and graph kernels alike, where MetricKernelWall sees graph kernels only.
const MetricStepWall = "ugrapher_step_wall_seconds"

// stepSamples is how many recent durations a StepSite keeps for its median.
const stepSamples = 64

// StepSite is the timing handle of one step of a compiled program, created at
// compile time so a Run records through a pre-resolved histogram and a
// pre-sized ring: nothing is looked up or allocated per run. Like KernelSite,
// a nil site is inert and a live one costs one atomic load while telemetry is
// disabled. A step runs on one goroutine at a time, so the ring needs no lock;
// read P50 between runs.
type StepSite struct {
	wall   *Histogram
	recent [stepSamples]int64
	n      int
}

// NewStepSite registers a step's series on the default registry.
func NewStepSite(model, step string) *StepSite {
	return &StepSite{wall: defaultReg.Histogram(Series2(MetricStepWall, "model", model, "step", step), DefaultLatencyBuckets)}
}

// Begin opens a timed run of the step: 0 while telemetry is disabled.
func (s *StepSite) Begin() int64 {
	if s == nil || !Enabled() {
		return 0
	}
	return now()
}

// End closes the run Begin opened at start; a zero start records nothing.
func (s *StepSite) End(start int64) {
	if start == 0 {
		return
	}
	ns := now() - start
	s.wall.Observe(ns)
	s.recent[s.n%stepSamples] = ns
	s.n++
}

// P50 is the median of the step's recorded runs, the last 64 at most; zero
// when none was recorded.
func (s *StepSite) P50() time.Duration {
	if s == nil || s.n == 0 {
		return 0
	}
	recent := slices.Clone(s.recent[:min(s.n, stepSamples)])
	slices.Sort(recent)
	return time.Duration(recent[len(recent)/2])
}
