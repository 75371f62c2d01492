package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// TestShardedBackendFullRegistry is the sharded twin of the exhaustive
// backend-equivalence property: for EVERY (strategy x operator) pair, the
// partition-aware lowering over 6 shards matches the reference interpreter
// within 1e-4 — the acceptance bar the partitioning refactor must clear.
func TestShardedBackendFullRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := testGraphQuick(rng, 250, 2600)
	par := NewShardedParallelBackend(4, 6)
	feat := 13 // 2600 edges x 13 feats clears the small-work cutoff

	for _, entry := range ops.Registry() {
		op := entry.Info
		ref := positiveOperands(g, op, feat, rand.New(rand.NewSource(101)))
		if err := Reference(g, op, ref); err != nil {
			t.Fatalf("%s: reference: %v", entry.DGLName, err)
		}
		for _, strat := range Strategies {
			got := positiveOperands(g, op, feat, rand.New(rand.NewSource(101)))
			p, err := Compile(op, Schedule{Strategy: strat, Group: 1, Tile: 1})
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", entry.DGLName, strat, err)
			}
			k, err := par.Lower(p, g, got)
			if err != nil {
				t.Fatalf("%s/%s: lower: %v", entry.DGLName, strat, err)
			}
			if _, ok := AsShardedLowering(k); ok != (op.CKind == tensor.DstV) {
				t.Fatalf("%s/%s: sharded=%v; aggregations take the sharded path, message creation stays flat", entry.DGLName, strat, ok)
			}
			if err := k.Run(); err != nil {
				t.Fatalf("%s/%s: run: %v", entry.DGLName, strat, err)
			}
			if !got.C.T.AllClose(ref.C.T, 1e-4, 1e-4) {
				t.Errorf("%s/%s: sharded differs from reference (maxdiff %v)",
					entry.DGLName, strat, got.C.T.MaxDiff(ref.C.T))
			}
		}
	}
}

// TestShardedMatchesUnsharded: a sharded kernel is the flat kernel to the
// bit — every reducing registry operator (message creation never shards,
// TestShardedBackendFullRegistry) under all four strategies, fixed, auto (0)
// and more-than-|V| shard counts, inline and on the pool. The graph has
// vertices with out-edges only (zero in-degree) and fully isolated ones: a
// row nobody sends to must come out as the flat kernel writes it, signed
// zeros included.
func TestShardedMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, feat = 200, 13 // 3000 edges x 13 feats clears the small-work cutoff
	b := graph.NewBuilder(n)
	for i := 0; i < 3000; i++ {
		// Sources below 180, destinations below 150: 150..179 only send,
		// 180..199 are isolated.
		b.AddEdge(int32(rng.Intn(180)), int32(rng.Intn(150)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range reducingOps() {
		flat := makeOperands(g, op, feat, false, 5)
		for _, strat := range Strategies {
			p := MustCompile(op, Schedule{Strategy: strat, Group: 1, Tile: 1})
			k, err := NewShardedParallelBackend(2, 1).Lower(p, g, flat)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4, 0, n + 50} {
				for _, workers := range []int{1, 2, 4} {
					o := flat // the inputs are only read; the output is fresh
					o.C.T = tensor.NewDense(n, feat)
					sk, err := NewShardedParallelBackend(workers, shards).Lower(p, g, o)
					if err != nil {
						t.Fatalf("%s/%s shards=%d workers=%d: lower: %v", op, strat, shards, workers, err)
					}
					if err := sk.Run(); err != nil {
						t.Fatalf("%s/%s shards=%d workers=%d: run: %v", op, strat, shards, workers, err)
					}
					if i := o.C.T.BitDiff(flat.C.T); i >= 0 {
						t.Errorf("%s/%s shards=%d workers=%d: sharded != flat at element %d: %v vs %v",
							op, strat, shards, workers, i, o.C.T.Data[i], flat.C.T.Data[i])
					}
				}
			}
		}
	}
}

// TestShardedRunDeterministic: repeated runs of one sharded kernel are
// bit-identical even with a worker pool racing over shard claims —
// destination ownership makes the result independent of claim order.
func TestShardedRunDeterministic(t *testing.T) {
	g := testGraph(t, 400, 9000, 3)
	const feat = 8
	op := ops.AggrSum
	p := MustCompile(op, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1})
	o := makeOperands(g, op, feat, false, 2)
	k, err := NewShardedParallelBackend(8, 7).Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	first := o.C.T.Clone()
	for rep := 0; rep < 5; rep++ {
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !o.C.T.Equal(first) {
			t.Fatalf("rep %d differs from first run", rep)
		}
	}
}

// TestShardedLoweringInterface pins the program-compiler contract: shard
// count and edge cut are reported under every strategy, also through a
// composed region and the resilient ladder, and a flat kernel is not a
// sharded lowering.
func TestShardedLoweringInterface(t *testing.T) {
	g := testGraph(t, 300, 4000, 13)
	const feat = 12
	op := ops.AggrSum
	for _, strat := range Strategies {
		p := MustCompile(op, Schedule{Strategy: strat, Group: 1, Tile: 1})
		o := makeOperands(g, op, feat, false, 7)
		k, err := NewShardedParallelBackend(2, 5).Lower(p, g, o)
		if err != nil {
			t.Fatal(err)
		}
		sl, ok := AsShardedLowering(k)
		if !ok {
			t.Fatalf("%s: aggregation at shards=5 must be a sharded lowering", strat)
		}
		if sl.ShardCount() != 5 {
			t.Errorf("%s: ShardCount = %d, want 5", strat, sl.ShardCount())
		}
		if cut := sl.ShardEdgeCut(); cut <= 0 || cut > 1 {
			t.Errorf("%s: ShardEdgeCut = %v, want in (0,1]", strat, cut)
		}
		rk, err := NewResilientBackend(NewShardedParallelBackend(2, 5), nil).Lower(p, g, o)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, ok := AsShardedLowering(ComposeRegion(rk, nil, nil, "r", g))
		if !ok || wrapped.ShardCount() != 5 || wrapped.ShardEdgeCut() != sl.ShardEdgeCut() {
			t.Errorf("%s: sharding not visible through a region around the ladder", strat)
		}
		fk, err := NewShardedParallelBackend(2, 1).Lower(p, g, o)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := AsShardedLowering(fk); ok {
			t.Errorf("%s: a flat kernel reported itself sharded", strat)
		}
	}
}

// TestShardedCounters: shard executions accumulate in Counters.Shards.
func TestShardedCounters(t *testing.T) {
	g := testGraph(t, 200, 3000, 5)
	op := ops.AggrSum
	p := MustCompile(op, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1})
	o := makeOperands(g, op, 11, false, 3)
	k, err := NewShardedParallelBackend(4, 6).Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	c := k.Counters()
	if c.Runs != 3 {
		t.Errorf("Runs = %d, want 3", c.Runs)
	}
	if c.Shards != 3*6 {
		t.Errorf("Shards = %d, want %d", c.Shards, 3*6)
	}
	if c.Edges != 3*int64(g.NumEdges()) {
		t.Errorf("Edges = %d, want %d", c.Edges, 3*g.NumEdges())
	}
}

// TestShardedCancellationAndPanic: the sharded runner honours context
// cancellation at shard claims and recovers worker panics into typed
// *KernelError values, like the flat runner.
func TestShardedCancellationAndPanic(t *testing.T) {
	defer faultinject.Reset()
	g := testGraph(t, 1000, 20000, 7)
	op := ops.AggrSum
	p := MustCompile(op, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1})
	o := makeOperands(g, op, 8, false, 9)
	k, err := NewShardedParallelBackend(4, 8).Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if err := k.RunCtx(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunCtx = %v, want context.Canceled", err)
	}

	faultinject.Arm(faultinject.SlowChunk, faultinject.Spec{After: 1, Every: 1, Delay: 30 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	if err := k.RunCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow sharded kernel under deadline: %v, want DeadlineExceeded", err)
	}
	faultinject.Reset()

	faultinject.Arm(faultinject.KernelPanic, faultinject.Spec{After: 2})
	var ke *KernelError
	if err := k.Run(); !errors.As(err, &ke) {
		t.Fatalf("worker panic surfaced as %v, want *KernelError", err)
	} else if ke.Backend != "parallel" {
		t.Errorf("KernelError.Backend = %q", ke.Backend)
	}
	faultinject.Reset()

	// The kernel stays usable: the next run matches the oracle.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ref := makeOperands(g, op, 8, false, 9)
	if err := Reference(g, op, ref); err != nil {
		t.Fatal(err)
	}
	if !o.C.T.AllClose(ref.C.T, 1e-4, 1e-4) {
		t.Errorf("post-fault rerun differs from reference (maxdiff %v)", o.C.T.MaxDiff(ref.C.T))
	}
}

// TestShardedLowerRejectsCorruptPlan: an armed shard-plan corruption makes
// Lower fail with the violated rule — a wrong partition is unrepresentable
// as a lowered kernel. A fresh graph guarantees the plan cache cannot
// satisfy the lookup first.
func TestShardedLowerRejectsCorruptPlan(t *testing.T) {
	defer faultinject.Reset()
	g := testGraph(t, 500, 6000, 21)
	op := ops.AggrSum
	p := MustCompile(op, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1})
	o := makeOperands(g, op, 8, false, 1)
	for _, seed := range []uint64{0, 1} {
		faultinject.Arm(faultinject.CorruptShardPlan, faultinject.Spec{After: 1, Seed: seed})
		_, err := NewShardedParallelBackend(2, 4).Lower(p, g, o)
		if err == nil {
			t.Fatalf("seed %d: Lower accepted a corrupted shard plan", seed)
		}
		var ve *analysis.VerifyError
		if !errors.As(err, &ve) || len(ve.Diags) != 1 || !ve.HasRule(analysis.RuleShardNoAlias) {
			t.Fatalf("seed %d: Lower error = %v, want exactly one shard-no-alias violation", seed, err)
		}
		faultinject.Reset()
	}
	// The failed partition is not cached: a clean Lower succeeds.
	if _, err := NewShardedParallelBackend(2, 4).Lower(p, g, o); err != nil {
		t.Fatalf("clean Lower after rejection: %v", err)
	}
}

// TestShardPlanCacheReuse: lowering several kernels against one graph
// partitions it once.
func TestShardPlanCacheReuse(t *testing.T) {
	g := testGraph(t, 400, 5000, 33)
	op := ops.AggrSum
	b := NewShardedParallelBackend(2, 4)
	before := shard.Stats().Partitions
	for _, strat := range Strategies {
		p := MustCompile(op, Schedule{Strategy: strat, Group: 1, Tile: 1})
		o := makeOperands(g, op, 6, false, 2)
		if _, err := b.Lower(p, g, o); err != nil {
			t.Fatal(err)
		}
	}
	if got := shard.Stats().Partitions - before; got != 1 {
		t.Errorf("lowering 4 kernels partitioned %d times, want 1", got)
	}
}

// TestShardedBackendDefaults: shard counts resolve through the same
// default/env plumbing the backend name uses.
func TestShardedBackendDefaults(t *testing.T) {
	if err := SetDefaultShards(3); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetDefaultShards(1); err != nil {
			t.Fatal(err)
		}
	}()
	if b := NewParallelBackend(2); b.Shards() != 3 {
		t.Errorf("NewParallelBackend shards = %d, want the default 3", b.Shards())
	}
	if err := SetDefaultShards(-1); err == nil {
		t.Error("SetDefaultShards(-1) should fail")
	}
	if err := SetDefaultShards(shard.MaxShards + 1); err == nil {
		t.Error("SetDefaultShards above MaxShards should fail")
	}
	t.Setenv("UGRAPHER_SHARDS", "9999999")
	if err := ValidateEnvShards(); err == nil {
		t.Error("ValidateEnvShards should reject 9999999")
	}
	t.Setenv("UGRAPHER_SHARDS", "banana")
	if err := ValidateEnvShards(); err == nil {
		t.Error("ValidateEnvShards should reject a non-integer")
	}
	t.Setenv("UGRAPHER_SHARDS", "0")
	if err := ValidateEnvShards(); err != nil {
		t.Errorf("ValidateEnvShards(0) = %v, want nil (auto)", err)
	}
}
