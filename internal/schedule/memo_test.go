package schedule

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
)

// resetMemo empties the process's simulation memo and its counters.
func resetMemo() {
	evalMemo.mu.Lock()
	defer evalMemo.mu.Unlock()
	evalMemo.m = make(map[evalKey]gpu.Metrics)
	evalMemo.order, evalMemo.next, evalMemo.hits, evalMemo.calls = nil, 0, 0, 0
}

// rebuilt returns a second *graph.Graph with g's content.
func rebuilt(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	h, err := graph.FromCOO(g.NumVertices(), append([]int32(nil), g.EdgeSrcs()...), append([]int32(nil), g.EdgeDsts()...))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMemoKeysByContent: a repeated candidate is answered from the memo with
// the simulation's exact metrics, also for another *graph.Graph of the same
// content; a different graph, width, schedule, device or fidelity simulates
// anew.
func TestMemoKeysByContent(t *testing.T) {
	resetMemo()
	t.Cleanup(resetMemo)
	task := smallTask(t, false)
	s := core.Schedule{Strategy: core.WarpVertex, Group: 2, Tile: 1}
	opts := []gpu.Option{gpu.WithMaxSampledBlocks(16)}
	first, err := Evaluate(task, s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.Estimate(task.Graph, task.Op, task.Feat, task.ACols, task.BCols, s, task.Device, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Metrics, fresh) {
		t.Fatalf("Evaluate %+v\nsimulation %+v", first.Metrics, fresh)
	}
	same := task
	same.Graph = rebuilt(t, task.Graph)
	again, err := Evaluate(same, s, gpu.WithMaxSampledBlocks(16))
	if err != nil {
		t.Fatal(err)
	}
	if calls, hits := MemoStats(); calls != 2 || hits != 1 || !reflect.DeepEqual(again, first) {
		t.Fatalf("same content through another *Graph: %d calls, %d hits, %+v", calls, hits, again)
	}

	other := task
	other.Graph = smallTask(t, true).Graph
	wider := task
	wider.Feat, wider.ACols = 64, 64
	a100 := task
	a100.Device = gpu.A100()
	misses := []struct {
		name string
		task Task
		s    core.Schedule
		opts []gpu.Option
	}{
		{"another graph", other, s, opts},
		{"another width", wider, s, opts},
		{"another schedule", task, core.Schedule{Strategy: core.WarpVertex, Group: 4, Tile: 1}, opts},
		{"another device", a100, s, opts},
		{"another fidelity", task, s, []gpu.Option{gpu.WithMaxSampledBlocks(17)}},
	}
	for _, m := range misses {
		callsBefore, hitsBefore := MemoStats()
		if _, err := Evaluate(m.task, m.s, m.opts...); err != nil {
			t.Fatal(err)
		}
		if calls, hits := MemoStats(); calls != callsBefore+1 || hits != hitsBefore {
			t.Errorf("%s was answered from the memo", m.name)
		}
	}
	// The defaults spelled out resolve to the same fidelity as no option.
	Evaluate(task, s)
	_, hitsBefore := MemoStats()
	Evaluate(task, s, gpu.WithMaxSampledBlocks(192))
	if _, hits := MemoStats(); hits != hitsBefore+1 {
		t.Error("the default sample size spelled out missed the memo")
	}
}

// TestMemoIsBounded: past memoCap entries the oldest go, and the memo never
// holds more than the cap.
func TestMemoIsBounded(t *testing.T) {
	resetMemo()
	t.Cleanup(resetMemo)
	key := func(i int) evalKey { return evalKey{graph: uint64(i), op: ops.AggrSum} }
	for i := 0; i < memoCap+10; i++ {
		evalMemo.put(key(i), gpu.Metrics{Cycles: float64(i)})
	}
	if n := len(evalMemo.m); n != memoCap {
		t.Fatalf("memo holds %d entries, cap %d", n, memoCap)
	}
	if _, ok := evalMemo.get(key(9)); ok {
		t.Error("entry 9 of the first ten inserted survived the overflow")
	}
	if m, ok := evalMemo.get(key(10)); !ok || m.Cycles != 10 {
		t.Errorf("entry 10 evicted or wrong: %v %v", ok, m)
	}
	if m, ok := evalMemo.get(key(memoCap + 9)); !ok || m.Cycles != memoCap+9 {
		t.Errorf("newest entry missing: %v %v", ok, m)
	}
}
