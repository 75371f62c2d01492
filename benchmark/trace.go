package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The benchmark's own tracing: spans recorded from this package around the
// exported calls into each layer (spans inside the program are a later
// change). Spans stay in memory and are written once, when the run ends. A
// nil *tracer records nothing, which is how the untraced run works.

// span is one timed interval. Start and End are nanoseconds since the
// tracer was created; Parent is the causing span's ID (0 = root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
	// off pauses recording without discarding the tracer, for the
	// untraced half of the overhead measurement.
	off bool
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

func (t *tracer) setOff(off bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.off = off
	t.mu.Unlock()
}

// record appends a span (offsets from the epoch, end 0 while open) and
// returns its ID, or 0 while recording is off.
func (t *tracer) record(name string, parent int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.off {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end), Workload: t.workload})
	return id
}

// begin opens a span under parent and returns its ID; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.record(name, parent, time.Since(t.epoch), 0)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an interval measured elsewhere (a request timed from its due
// time, say); start and end are wall-clock instants.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.record(name, parent, start.Sub(t.epoch), end.Sub(t.epoch))
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its direct children cover (overlapping children count once).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// totalByName sums span durations per name, in milliseconds.
func totalByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start) / 1e6
	}
	return out
}
