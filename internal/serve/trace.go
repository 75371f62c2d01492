package serve

// Request-trace plumbing for the serving layer (DESIGN.md §8): identity
// adoption from standard headers, the wire-format timing breakdown, and the
// span-record helpers the /debug/requests endpoint and exemplar store share.
//
// The serving layer is the one place traces are *minted*; every layer below
// (program, core) only adopts the trace from ctx — the repo linter's
// trace-propagation rule enforces that split.

import (
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// traceIdentity derives the request's trace identity from its headers:
// a W3C traceparent ("00-<32 hex trace>-<16 hex span>-<2 hex flags>") adopts
// the low 64 bits of the remote trace id plus the remote span as parent; an
// X-Request-ID falls back to a stable FNV-1a hash so retries of the same id
// land in the same trace. (0, 0) means mint a fresh id.
func traceIdentity(r *http.Request) (trace, parent uint64) {
	if tp := r.Header.Get("traceparent"); tp != "" {
		parts := strings.Split(strings.TrimSpace(tp), "-")
		if len(parts) == 4 && len(parts[1]) == 32 && len(parts[2]) == 16 {
			if lo, err := strconv.ParseUint(parts[1][16:], 16, 64); err == nil && lo != 0 {
				if ps, err := strconv.ParseUint(parts[2], 16, 64); err == nil {
					parent = ps
				}
				return lo, parent
			}
		}
	}
	if id := r.Header.Get("X-Request-ID"); id != "" {
		h := fnv.New64a()
		_, _ = h.Write([]byte(id))
		if v := h.Sum64(); v != 0 {
			return v, 0
		}
	}
	return 0, 0
}

// timingBreakdown is the per-stage latency attribution object returned in
// the inference response while telemetry is enabled. Stages are disjoint and
// sum (within clock skew) to total: admission (handler entry → enqueue),
// queue_wait (enqueue → forward-pass start), kernel (the forward pass, and
// the full pass after a failed row run), respond (pass end → response write).
type timingBreakdown struct {
	TraceID     string  `json:"trace_id"`
	AdmissionMS float64 `json:"admission_ms"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	KernelMS    float64 `json:"kernel_ms"`
	RespondMS   float64 `json:"respond_ms"`
	TotalMS     float64 `json:"total_ms"`
}

// msBetween converts a span-clock interval to milliseconds, clamping
// negatives (a stage that never ran reads as 0, not garbage).
func msBetween(from, to int64) float64 {
	if to <= from {
		return 0
	}
	return float64(to-from) / 1e6
}

// stagePoints extracts the stage breakdown from a request's span records.
func stagePoints(spans []telemetry.SpanRecord) []telemetry.StagePoint {
	var out []telemetry.StagePoint
	for _, sp := range spans {
		if sp.Cat == "stage" {
			out = append(out, telemetry.StagePoint{Stage: sp.Name, Ns: sp.Dur})
		}
	}
	return out
}
