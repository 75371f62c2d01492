package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestDisarmedHooksAreNoops(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("no point armed, Enabled() = true")
	}
	for p := Point(0); p < numPoints; p++ {
		if Armed(p) {
			t.Errorf("%s armed after Reset", p)
		}
		if Fire(p) {
			t.Errorf("%s fired while disarmed", p)
		}
		MaybePanic(p) // must not panic
		MaybeSleep(p) // must not sleep
		if err := ErrIf(p); err != nil {
			t.Errorf("%s: ErrIf = %v while disarmed", p, err)
		}
		if Calls(p) != 0 {
			t.Errorf("%s: disarmed hooks counted calls", p)
		}
	}
}

func TestCounterModeAfterEvery(t *testing.T) {
	defer Reset()
	// Fire on call 3 and every 2nd call after: 3, 5, 7, 9, ...
	Arm(KernelPanic, Spec{After: 3, Every: 2})
	var fired []int
	for i := 1; i <= 10; i++ {
		if Fire(KernelPanic) {
			fired = append(fired, i)
		}
	}
	want := []int{3, 5, 7, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
	if Calls(KernelPanic) != 10 || Fires(KernelPanic) != 4 {
		t.Errorf("Calls=%d Fires=%d, want 10 and 4",
			Calls(KernelPanic), Fires(KernelPanic))
	}
}

func TestCounterModeFireOnce(t *testing.T) {
	defer Reset()
	// Every == 0: exactly one firing, on the After-th call.
	Arm(NaNPoke, Spec{After: 2})
	hits := 0
	for i := 0; i < 20; i++ {
		if Fire(NaNPoke) {
			hits++
		}
	}
	if hits != 1 || Fires(NaNPoke) != 1 {
		t.Errorf("fire-once spec hit %d times (Fires=%d), want 1", hits, Fires(NaNPoke))
	}
	// After == 0 means the first call.
	Arm(NaNPoke, Spec{})
	if !Fire(NaNPoke) {
		t.Error("Spec{} should fire on the first call")
	}
	if Fire(NaNPoke) {
		t.Error("Spec{} should fire exactly once")
	}
}

func TestSeededModeIsDeterministic(t *testing.T) {
	defer Reset()
	run := func(seed uint64) []int64 {
		Arm(SlowChunk, Spec{Rate: 0.25, Seed: seed})
		var fired []int64
		for i := 0; i < 400; i++ {
			if Fire(SlowChunk) {
				fired = append(fired, Calls(SlowChunk))
			}
		}
		return fired
	}
	a, b := run(99), run(99)
	if len(a) != len(b) {
		t.Fatalf("same seed, different firing counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different firing pattern at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Sanity: a 25% rate over 400 calls should fire a plausible number of
	// times (the hash is fixed, so this is a regression check, not a
	// statistical one).
	if len(a) < 50 || len(a) > 150 {
		t.Errorf("rate 0.25 over 400 calls fired %d times", len(a))
	}
	c := run(100)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical firing patterns")
	}
}

func TestArmResetsCountersDisarmKeepsThem(t *testing.T) {
	defer Reset()
	Arm(LowerFail, Spec{After: 1})
	Fire(LowerFail)
	Fire(LowerFail)
	Disarm(LowerFail)
	if Armed(LowerFail) {
		t.Error("still armed after Disarm")
	}
	// Counters survive Disarm so tests can read them post-run.
	if Calls(LowerFail) != 2 || Fires(LowerFail) != 1 {
		t.Errorf("after Disarm: Calls=%d Fires=%d, want 2 and 1",
			Calls(LowerFail), Fires(LowerFail))
	}
	Arm(LowerFail, Spec{After: 1})
	if Calls(LowerFail) != 0 || Fires(LowerFail) != 0 {
		t.Error("Arm did not reset counters")
	}
}

func TestMaybePanicCarriesPanicValue(t *testing.T) {
	defer Reset()
	Arm(KernelPanic, Spec{After: 1})
	defer func() {
		r := recover()
		p, ok := r.(Panic)
		if !ok {
			t.Fatalf("recovered %T (%v), want faultinject.Panic", r, r)
		}
		if p.Point != KernelPanic || p.Call != 1 {
			t.Errorf("Panic = %+v, want {KernelPanic 1}", p)
		}
		if p.Error() == "" {
			t.Error("Panic.Error() empty")
		}
	}()
	MaybePanic(KernelPanic)
	t.Fatal("MaybePanic did not panic")
}

func TestErrIfWrapsSentinel(t *testing.T) {
	defer Reset()
	Arm(LowerFail, Spec{After: 1})
	err := ErrIf(LowerFail)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("ErrIf = %v, want wrap of ErrInjected", err)
	}
	if err := ErrIf(LowerFail); err != nil {
		t.Errorf("second call after fire-once spec returned %v", err)
	}
}

func TestMaybeSleepDelays(t *testing.T) {
	defer Reset()
	Arm(SlowChunk, Spec{After: 1, Delay: 30 * time.Millisecond})
	start := time.Now()
	MaybeSleep(SlowChunk)
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("MaybeSleep slept %v, want >= ~30ms", d)
	}
	start = time.Now()
	MaybeSleep(SlowChunk) // fire-once: second call must not sleep
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Errorf("disfired MaybeSleep slept %v", d)
	}
}

// OnFire runs on every fire and only then, before the hook's own effect, and
// outside the point's lock (it may call back into the package).
func TestOnFireRunsInsideTheFiringCall(t *testing.T) {
	defer Reset()
	var at []int64
	Arm(DenseChunkPanic, Spec{After: 2, Every: 2, OnFire: func() { at = append(at, Calls(DenseChunkPanic)) }})
	for i := 0; i < 5; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil && len(at) == 0 {
					t.Error("the panic was raised before OnFire ran")
				}
			}()
			MaybePanic(DenseChunkPanic)
		}()
	}
	if len(at) != 2 || at[0] != 2 || at[1] != 4 {
		t.Fatalf("OnFire ran at calls %v, want [2 4]", at)
	}
}

func TestPointString(t *testing.T) {
	if KernelPanic.String() != "kernel-panic" || LowerFail.String() != "lower-fail" {
		t.Errorf("point names wrong: %s %s", KernelPanic, LowerFail)
	}
	if Point(200).String() == "" {
		t.Error("out-of-range point has empty name")
	}
}
