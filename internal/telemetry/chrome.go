package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// Chrome trace-event exporter: the collected spans render as one row per
// track in chrome://tracing or https://ui.perfetto.dev. The format is the
// "JSON object" flavour of the trace-event spec: a traceEvents array of
// complete ("X") and instant ("i") events plus thread_name metadata ("M")
// naming each track. Causal traces (DESIGN.md §8) add async nestable events
// ("b"/"e"): every traced span is shadowed as an async pair under id = trace
// id and cat "request", so Perfetto groups one tree per request regardless of
// which track the work ran on.

// chromeEvent is one trace-event record. Ts and Dur are microseconds (the
// unit the spec fixes); fractional microseconds keep nanosecond ordering.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	S    string            `json:"s,omitempty"`
	ID   string            `json:"id,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func hexID(v uint64) string { return strconv.FormatUint(v, 16) }

// traceArgs extends args with the causal identity. The source map may be
// shared (KernelSite.okArgs), so it is copied, never mutated.
func traceArgs(ev TraceEvent) map[string]string {
	out := make(map[string]string, len(ev.Args)+3)
	for k, v := range ev.Args {
		out[k] = v
	}
	out["trace_id"] = hexID(ev.TraceID)
	if ev.SpanID != 0 {
		out["span_id"] = hexID(ev.SpanID)
	}
	if ev.ParentID != 0 {
		out["parent_id"] = hexID(ev.ParentID)
	}
	return out
}

// WriteChromeTrace renders the registry's events as Chrome trace-event
// JSON. Events are sorted by (track, start), so timestamps are monotonically
// non-decreasing within each track — the invariant the exporter tests pin.
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	events := r.Events()
	tracks := r.TrackNames()

	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Track != events[j].Track {
			return events[i].Track < events[j].Track
		}
		return events[i].Start < events[j].Start
	})

	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(events)+len(tracks)+1),
		DisplayTimeUnit: "ms",
	}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]string{"name": "ugrapher"},
	})
	for id, name := range tracks {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
			Args: map[string]string{"name": name},
		})
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name, Cat: ev.Cat, Pid: 1, Tid: ev.Track,
			Ts: float64(ev.Start) / 1e3, Args: ev.Args,
		}
		if ev.TraceID != 0 {
			ce.Args = traceArgs(ev)
		}
		if ev.Instant {
			ce.Ph = "i"
			ce.S = "t"
		} else {
			ce.Ph = "X"
			ce.Dur = float64(ev.Dur) / 1e3
		}
		out.TraceEvents = append(out.TraceEvents, ce)

		// Shadow every traced span as an async nestable pair keyed by the
		// trace id: Perfetto renders the request's spans as one tree.
		if ev.TraceID != 0 && !ev.Instant {
			id := hexID(ev.TraceID)
			out.TraceEvents = append(out.TraceEvents,
				chromeEvent{
					Name: ev.Name, Cat: "request", Ph: "b", Pid: 1, Tid: ev.Track,
					Ts: float64(ev.Start) / 1e3, ID: id, Args: ce.Args,
				},
				chromeEvent{
					Name: ev.Name, Cat: "request", Ph: "e", Pid: 1, Tid: ev.Track,
					Ts: float64(ev.Start+ev.Dur) / 1e3, ID: id,
				},
			)
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
