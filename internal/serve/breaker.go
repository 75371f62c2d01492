package serve

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// The per-model circuit breaker (DESIGN.md §13). Kernel panics surface as
// *core.KernelError; a run of them in a row means the model's kernels are
// reliably failing, and failing every request on them would burn a worker on
// panic-recover cycles. The breaker counts consecutive kernel failures and,
// at the threshold, turns on the fallback ladder of the backend the model's
// program was compiled on (core.ResilientBackend: a failing kernel reruns on
// the reference interpreter) until a cooldown passes. Then one probe batch
// runs with the ladder off again: success closes the breaker, another kernel
// failure re-opens it.
//
// All mutation happens on the model host's single worker goroutine, so the
// counters and timestamps are plain fields; only the state cell is atomic,
// because handlers and the metrics scraper read it concurrently.

// breakerState enumerates the classic three states.
type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String renders the state for logs and trace events.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "state-" + strconv.Itoa(int(s))
	}
}

// breaker is one model's circuit breaker.
type breaker struct {
	model     string
	threshold int           // consecutive kernel failures that trip it
	cooldown  time.Duration // open → half-open delay

	state atomic.Int32 // breakerState; read by handlers and /metrics

	// Worker-goroutine-only fields.
	consecutive int
	openedAt    time.Time
}

func newBreaker(model string, threshold int, cooldown time.Duration) *breaker {
	return &breaker{model: model, threshold: threshold, cooldown: cooldown}
}

// current reads the state (any goroutine).
func (b *breaker) current() breakerState { return breakerState(b.state.Load()) }

// transition moves to next and records the move as a telemetry instant
// event on the "serve" track plus a transition counter, so breaker history
// is visible in both the trace and the metrics snapshot.
func (b *breaker) transition(next breakerState, reason string) {
	prev := breakerState(b.state.Swap(int32(next)))
	if prev == next {
		return
	}
	telemetry.Default().Counter(telemetry.Series2(
		metricBreakerTransitions, "model", b.model, "to", next.String())).Inc()
	telemetry.Default().Instant("serve", "breaker", b.model, map[string]string{
		"model": b.model, "from": prev.String(), "to": next.String(), "reason": reason,
	})
}

// route decides how the next batch runs: degraded (fallback ladder on) while
// open, otherwise with the ladder off so kernel failures surface and count.
// When the cooldown has passed it flips open → half-open and lets exactly
// one probe batch through with the ladder off (single worker: no second
// probe can race in). Worker goroutine only.
func (b *breaker) route(now time.Time) (degraded, probe bool) {
	switch b.current() {
	case breakerClosed:
		return false, false
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.transition(breakerHalfOpen, "cooldown elapsed, probing primary")
			return false, true
		}
		return true, false
	default: // half-open: the in-flight probe's batch
		return false, true
	}
}

// onSuccess records a ladder-off success. Worker goroutine only.
func (b *breaker) onSuccess(probe bool) {
	b.consecutive = 0
	if probe {
		b.transition(breakerClosed, "probe succeeded")
	}
}

// onFailure records a ladder-off kernel failure; returns true when
// this failure tripped the breaker. Worker goroutine only.
func (b *breaker) onFailure(probe bool, now time.Time) bool {
	if probe {
		b.openedAt = now
		b.consecutive = 0
		b.transition(breakerOpen, "probe failed")
		return true
	}
	b.consecutive++
	if b.consecutive >= b.threshold && b.current() == breakerClosed {
		b.openedAt = now
		b.consecutive = 0
		b.transition(breakerOpen, "consecutive kernel failures reached threshold")
		return true
	}
	return false
}

// onInconclusive records a probe whose batch failed for reasons unrelated
// to the kernels (e.g. the batch deadline expired mid-run): the
// probe proved nothing, so the breaker re-opens and waits out another
// cooldown. Worker goroutine only.
func (b *breaker) onInconclusive(now time.Time) {
	if b.current() == breakerHalfOpen {
		b.openedAt = now
		b.transition(breakerOpen, "probe inconclusive")
	}
}
