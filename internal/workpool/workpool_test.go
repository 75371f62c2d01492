package workpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCoversRangeExactlyOnce: for every shape of (items, chunk, workers)
// each index is visited once, in chunks that respect the requested size.
func TestRunCoversRangeExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ items, chunk, workers int }{
		{1, 1, 1}, {1, 8, 4}, {7, 3, 1}, {100, 7, 2}, {1000, 1, 4}, {1000, 64, 8}, {5, 100, 4},
	} {
		hits := make([]atomic.Int32, tc.items)
		j := NewJob(func(lo, hi int) {
			if hi-lo > tc.chunk && tc.workers > 1 {
				t.Errorf("chunk [%d,%d) larger than %d", lo, hi, tc.chunk)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for rep := 0; rep < 3; rep++ { // the job is reusable
			if err := Run(context.Background(), j, tc.items, tc.chunk, tc.workers); err != nil {
				t.Fatalf("%+v: %v", tc, err)
			}
		}
		for i := range hits {
			if n := hits[i].Load(); n != 3 {
				t.Fatalf("%+v: index %d visited %d times over 3 runs", tc, i, n)
			}
		}
	}
}

// TestInlineRunsNeverTouchThePool: one worker (or one chunk) is a plain
// call on the caller — no job counted, one call when ctx cannot be cancelled,
// chunked when it can.
func TestInlineRunsNeverTouchThePool(t *testing.T) {
	before := Snapshot()
	calls := 0
	j := NewJob(func(lo, hi int) { calls++ })
	if err := Run(context.Background(), j, 1000, 10, 1); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || j.Chunks() != 1 {
		t.Errorf("no-deadline inline run made %d calls (%d chunks), want one", calls, j.Chunks())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls = 0
	if err := Run(ctx, j, 1000, 10, 1); err != nil {
		t.Fatal(err)
	}
	if calls != 100 {
		t.Errorf("cancellable inline run made %d calls, want 100 chunks", calls)
	}
	if err := Run(ctx, j, 5, 10, 8); err != nil { // a single chunk needs no helper
		t.Fatal(err)
	}
	after := Snapshot()
	if after.Jobs != before.Jobs || after.CallerChunks != before.CallerChunks {
		t.Errorf("inline runs were counted as pool jobs: %+v -> %+v", before, after)
	}
}

// TestHelpersShareTheWork: with a body slow enough for parked helpers to
// wake, a multi-worker run is served by caller and helpers both, and the
// counters account for every chunk.
func TestHelpersShareTheWork(t *testing.T) {
	// Offers that outlived earlier tests' jobs may still fill the queue (on
	// one P the helpers have had no chance to drop them yet); a full queue
	// would make this run caller-only, which is correct but not the point.
	for len(pool.offers) > 0 {
		time.Sleep(time.Millisecond)
	}
	before := Snapshot()
	j := NewJob(func(lo, hi int) { time.Sleep(200 * time.Microsecond) })
	const chunks = 64
	if err := Run(context.Background(), j, chunks, 1, 4); err != nil {
		t.Fatal(err)
	}
	after := Snapshot()
	if after.Helpers < 3 {
		t.Errorf("pool has %d helpers after a 4-worker run, want >= 3", after.Helpers)
	}
	if after.Jobs != before.Jobs+1 {
		t.Errorf("jobs %d -> %d, want +1", before.Jobs, after.Jobs)
	}
	caller, helper := after.CallerChunks-before.CallerChunks, after.HelperChunks-before.HelperChunks
	if caller+helper != chunks || j.Chunks() != chunks {
		t.Errorf("caller %d + helper %d chunks (job says %d), want %d", caller, helper, j.Chunks(), chunks)
	}
	if caller == 0 || helper == 0 {
		t.Errorf("work was not shared: caller %d, helpers %d", caller, helper)
	}
}

// TestPanicIsReturnedAndPoolSurvives: a panic on whichever goroutine claims
// the poisoned chunk comes back as a *PanicError with a stack, stops the
// job, and leaves the pool serving the next run.
func TestPanicIsReturnedAndPoolSurvives(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		j := NewJob(func(lo, hi int) {
			if lo <= 17 && 17 < hi {
				panic(boom)
			}
			ran.Add(1)
			time.Sleep(50 * time.Microsecond)
		})
		err := Run(context.Background(), j, 10000, 1, workers)
		var pe *PanicError
		if !errors.As(err, &pe) || !errors.Is(err, boom) || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: err = %v, want a *PanicError wrapping boom with a stack", workers, err)
		}
		if n := ran.Load(); n >= 10000-1 {
			t.Errorf("workers=%d: the job did not stop after the panic (%d chunks ran)", workers, n)
		}
		ok := NewJob(func(lo, hi int) {})
		if err := Run(context.Background(), ok, 100, 1, workers); err != nil {
			t.Fatalf("workers=%d: pool did not serve the next job: %v", workers, err)
		}
		// The same job is reusable after a failed run.
		if err := Run(context.Background(), j, 10, 1, workers); err != nil {
			t.Fatalf("workers=%d: job not reusable after a panic: %v", workers, err)
		}
	}
}

// TestCancelStopsBetweenChunks: once ctx is cancelled no further chunk is
// claimed, on any participant.
func TestCancelStopsBetweenChunks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		j := NewJob(func(lo, hi int) {
			if ran.Add(1) == 5 {
				cancel()
			}
			time.Sleep(50 * time.Microsecond)
		})
		err := Run(ctx, j, 10000, 1, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := int(ran.Load()); n > 5+workers {
			t.Errorf("workers=%d: %d chunks ran after cancellation at chunk 5", workers, n)
		}
		cancel()
	}
}

// TestNestedAndConcurrentSubmitters: several goroutines submit jobs at once
// and every chunk submits a nested job of its own, far more submitters than
// helpers. Caller participation means all of it finishes; run under -race
// this is also the pool's memory-model proof.
func TestNestedAndConcurrentSubmitters(t *testing.T) {
	const outers, outerChunks, innerItems = 6, 8, 200
	done := make(chan struct{})
	var total atomic.Int64
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for o := 0; o < outers; o++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				inner := make([]*Job, outerChunks)
				for i := range inner {
					inner[i] = NewJob(func(lo, hi int) { total.Add(int64(hi - lo)) })
				}
				outer := NewJob(func(lo, hi int) {
					for c := lo; c < hi; c++ {
						if err := Run(context.Background(), inner[c], innerItems, 7, 3); err != nil {
							t.Error(err)
						}
					}
				})
				for rep := 0; rep < 20; rep++ {
					if err := Run(context.Background(), outer, outerChunks, 1, 4); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("nested/concurrent submission did not finish: deadlock")
	}
	if want := int64(outers * 20 * outerChunks * innerItems); total.Load() != want {
		t.Errorf("inner items processed = %d, want %d", total.Load(), want)
	}
}

// TestSteadyStateAllocatesNothing: a reused job dispatches without
// allocating, helpers included.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	var sink atomic.Int64
	j := NewJob(func(lo, hi int) { sink.Add(int64(hi - lo)) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []context.Context{context.Background(), ctx} {
		if err := Run(c, j, 4096, 16, 4); err != nil { // warm up: spawn helpers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := Run(c, j, 4096, 16, 4); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Run allocates %.1f objects per call, want 0", allocs)
		}
	}
}
