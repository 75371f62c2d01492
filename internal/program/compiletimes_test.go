package program

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/telemetry"
)

// slowScheduler is stubScheduler taking d per ScheduleFor, the way a grid
// search does.
type slowScheduler struct {
	stubScheduler
	d     time.Duration
	calls *int
}

func (s slowScheduler) ScheduleFor(t schedule.Task) core.Schedule {
	*s.calls++
	time.Sleep(s.d)
	return s.sched
}

// TestCompileTimesSplitThePasses: the scheduler's time lands on the schedule
// pass, every pass the toy program goes through is clocked, the passes sum
// to no more than the compile's wall time, and the compile span carries each
// pass as an argument.
func TestCompileTimesSplitThePasses(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	telemetry.SetEnabled(true)
	g := testGraph(t, 4, 80, 600)
	p, _, _ := toyProgram(t, g, 5, 3)
	calls := 0
	s := slowScheduler{stubScheduler{sched: core.DefaultSchedule, fuse: true}, 10 * time.Millisecond, &calls}
	start := time.Now()
	cp, err := Compile(p, g, s, core.NewParallelBackend(1))
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	ct := cp.CompileTimes()
	if calls == 0 || ct.Schedule < time.Duration(calls)*s.d {
		t.Errorf("schedule pass %v over %d ScheduleFor calls of %v each", ct.Schedule, calls, s.d)
	}
	if ct.Total() > wall {
		t.Errorf("passes sum to %v, more than the compile's %v", ct.Total(), wall)
	}
	for _, pass := range ct.passes() {
		if pass.d <= 0 {
			t.Errorf("pass %s clocked %v (%v)", pass.name, pass.d, ct)
		}
	}
	var args map[string]string
	for _, ev := range telemetry.Default().Events() {
		if ev.Cat == "compile" && ev.Name == "compile" {
			args = ev.Args
		}
	}
	for _, pass := range ct.passes() {
		ms, err := strconv.ParseFloat(args[pass.name+"_ms"], 64)
		if err != nil {
			t.Fatalf("compile span has no %s_ms argument: %v", pass.name, args)
		}
		if pass.name == "schedule" && ms < float64(calls)*float64(s.d)/1e6 {
			t.Errorf("schedule_ms = %v, want at least %d x %v", ms, calls, s.d)
		}
	}
}
