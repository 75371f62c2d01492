package schedule

import (
	"sync"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/ops"
)

// evalKey is everything a simulation of one candidate reads, by content: the
// graph by fingerprint (never by *graph.Graph, so the memo retains no graph —
// ugrapher-train builds thousands), the operator, the operand widths, the
// schedule, the device's parameters and the simulator fidelity the options
// resolve to.
type evalKey struct {
	graph           uint64
	vertices, edges int
	op              ops.OpInfo
	feat            int
	aCols, bCols    int
	sched           core.Schedule
	dev             gpu.Device
	sim             any
}

// memoCap bounds the memo. An entry is a key and a gpu.Metrics, about half a
// kilobyte with the map's overhead, so a full memo holds ≈ 4 MB; past the cap
// the oldest entry goes. internal/bench's quick tables ask for fewer distinct
// candidates than the cap.
const memoCap = 8192

// memo is a process-local, bounded map from evalKey to the simulated
// metrics. Simulate is a pure function of the key, so a hit returns exactly
// what the simulation would.
type memo struct {
	mu    sync.Mutex
	m     map[evalKey]gpu.Metrics
	order []evalKey // insertion ring for eviction
	next  int
	hits  int64
	calls int64
}

var evalMemo = &memo{m: make(map[evalKey]gpu.Metrics)}

func (c *memo) get(k evalKey) (gpu.Metrics, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	m, ok := c.m[k]
	if ok {
		c.hits++
	}
	return m, ok
}

func (c *memo) put(k evalKey, m gpu.Metrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok {
		return // a concurrent caller simulated the same candidate
	}
	if len(c.order) < memoCap {
		c.order = append(c.order, k)
	} else {
		delete(c.m, c.order[c.next])
		c.order[c.next] = k
		c.next = (c.next + 1) % memoCap
	}
	c.m[k] = m
}

// MemoStats reports how many Evaluate calls the process made and how many of
// them the simulation memo answered.
func MemoStats() (calls, hits int64) {
	evalMemo.mu.Lock()
	defer evalMemo.mu.Unlock()
	return evalMemo.calls, evalMemo.hits
}
