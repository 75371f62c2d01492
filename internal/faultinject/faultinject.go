// Package faultinject provides deterministic, seedable fault-injection
// points for the execution layer. Production code calls the cheap hook
// functions (MaybePanic, MaybeSleep, ErrIf) at well-defined sites — kernel
// chunk bodies, lowering entry points, post-run output hand-off — and tests
// arm the points to prove each hardening guard actually catches the fault it
// claims to: a worker panic surfaces as a typed *core.KernelError, a poked
// NaN trips the numeric scan, a slow chunk trips a context deadline, a
// lowering failure exercises the fallback ladder.
//
// The package is dependency-free (standard library only), so every layer may
// call into it without import cycles, and it needs no build tags: when no
// point is armed, every hook is a single atomic load — cheap enough to keep
// in release binaries and on zero-allocation hot paths.
//
// Firing is deterministic. A point armed with Spec{After: n, Every: m} fires
// on its n-th eligible call and every m-th call after that; Spec{Rate, Seed}
// instead hashes the call counter with a seeded splitmix64, so a "random"
// 1% fault schedule replays identically for a fixed seed.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Point identifies one injection site class.
type Point uint8

const (
	// KernelPanic makes a kernel worker panic mid-chunk.
	KernelPanic Point = iota
	// NaNPoke poisons the first element of a kernel's output with NaN.
	NaNPoke
	// SlowChunk delays a worker chunk by the armed Spec's Delay.
	SlowChunk
	// LowerFail makes backend plan lowering return an injected error.
	LowerFail
	// CorruptOperandKind corrupts the typing of the view the static verifier
	// checks, proving the operand-type rules fire. The armed Spec's Seed
	// selects the variant: 0 flips a graph operand's addressing class
	// (operand-type), 1 points a node at a value outside the table
	// (ssa-form).
	CorruptOperandKind
	// CorruptFusion mislabels a fusion decision in the verified IR, proving
	// the fusion-legality rules fire. Seed selects the variant: 0 toggles a
	// Fused marker (fusion-pair), 1 declares a fused intermediate to be the
	// program output (fusion-single-consumer), 2 drops a live node from the
	// compiled view (dce-soundness).
	CorruptFusion
	// CorruptBufferPlan corrupts the verified buffer plan, proving the
	// buffer rules fire. Seed selects the variant: 0 aliases two
	// simultaneously-live values onto one arena slot (buffer-alias), 1
	// shrinks a slot below its hosted value (buffer-capacity), 2 marks a
	// non-elementwise node in-place (inplace-elementwise).
	CorruptBufferPlan
	// CorruptAtomicFlag flips the plan's atomic-need bit in the verified
	// facts, proving the write-conflict rule fires.
	CorruptAtomicFlag
	// CorruptFusionRegion corrupts a fusion region's recorded metadata in the
	// verified IR, proving the fusion-region rules fire. Seed selects the
	// variant: 0 inflates the region's claimed saved-traffic bytes
	// (fusion-region-cost), 1 rewrites the absorbed post-epilogue chain so it
	// no longer matches the recorded unary node (fusion-region), 2 appends a
	// phantom consumer of an erased interior value to the pre-fusion view
	// (fusion-region); on a row-resident region, 3 has a scatter's Dst_V
	// result read back through a Src_V operand and 4 gives an interior value
	// a recorded reader outside the region (fusion-region, one diagnostic
	// each).
	CorruptFusionRegion
	// CorruptShardPlan corrupts the verified view of a shard plan, proving
	// shard-no-alias fires. Seed selects which half of the rule: 0 makes two
	// shards own one vertex, 1 leaves a vertex owned by no shard.
	CorruptShardPlan
	// SlowHandler delays the serving layer's HTTP handler before admission
	// by the armed Spec's Delay, simulating a slow ingress path so drain and
	// per-request deadline guarantees can be proven under handler latency.
	SlowHandler
	// QueueStall delays a serve model worker after it takes a request and
	// before it runs the pass, so the bounded per-model queue fills and the
	// admission controller's fast 429 rejection can be proven under load.
	QueueStall
	// KernelPanicLoad is KernelPanic restricted to the parallel host
	// backend's workers (the sharded path included, the reference
	// interpreter excluded). Sustained-failure scenarios — the serve layer
	// answering on the fallback ladder under load — arm it with Every: 1 so every
	// primary-path run panics while the reference fallback keeps producing
	// correct outputs; the shared KernelPanic point cannot express that,
	// because the fallback rung fires it too.
	KernelPanicLoad
	// CorruptWaveSchedule corrupts the verified view of the step-dependence
	// DAG and wave schedule, proving the wave rules fire. Seed selects the
	// variant: 0 drops a hazard edge from the DAG view (step-deps-sound), 1
	// hoists a dependent step into its producer's wave (wave-legal).
	CorruptWaveSchedule
	// DenseChunkPanic makes one row-range chunk of a split dense step (GEMM
	// row panel, elementwise row range) panic, on whichever pool participant
	// claimed it — proving the panic surfaces as a step-named error and the
	// pool keeps serving.
	DenseChunkPanic
	// SlowDenseChunk delays a split dense step's chunk by the armed Spec's
	// Delay, so a deadline can be shown to cut the step between chunks.
	SlowDenseChunk
	// CorruptDenseRewrite corrupts what the dense-rewrite stage recorded in
	// the verified IR, proving its three rules fire. Seed selects the variant:
	// 0 gives the value under an absorbed GEMM epilogue a second recorded
	// reader (dense-epilogue), 1 shifts the row range of a split GEMM's weight
	// view (split-gemm), 2 gives the recorded aggregate behind a commuted
	// gather a second reader (aggregate-commute).
	CorruptDenseRewrite
	// CorruptRowClosure corrupts the verified view of the row transfers a
	// compiled program's row-subset runs walk by, proving row-closure fires.
	// Seed selects the variant: 0 records a Src_V operand as carried instead
	// of expanded through the in-edges, 1 drops an external operand of a
	// row-resident region's interior.
	CorruptRowClosure

	numPoints
)

var pointNames = [numPoints]string{
	"kernel-panic", "nan-poke", "slow-chunk", "lower-fail",
	"corrupt-operand-kind", "corrupt-fusion", "corrupt-buffer-plan", "corrupt-atomic-flag",
	"corrupt-fusion-region", "corrupt-shard-plan",
	"slow-handler", "queue-stall", "kernel-panic-load",
	"corrupt-wave-schedule",
	"dense-chunk-panic", "slow-dense-chunk",
	"corrupt-dense-rewrite",
	"corrupt-row-closure",
}

// String names the point.
func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", uint8(p))
}

// Spec configures when an armed point fires.
//
// Counter mode (Rate == 0): the point fires on its After-th call (1-based;
// 0 means the first call) and, when Every > 0, on every Every-th call after
// that. Every == 0 fires exactly once.
//
// Seeded mode (Rate > 0): each call fires independently with probability
// Rate, decided by splitmix64(Seed, callIndex) — deterministic for a fixed
// seed, so failures found by a randomized run replay exactly.
type Spec struct {
	After int
	Every int
	Rate  float64
	Seed  uint64
	// Delay is how long SlowChunk sleeps per firing (default 10ms).
	Delay time.Duration
	// Limit caps the total number of fires (0 = unlimited): after Limit
	// fires the point stays armed but silent. Long-running scenarios use it
	// to inject a bounded burst of faults and then let the system recover.
	Limit int
	// OnFire, when set, is called each time the point fires, on the
	// goroutine that hit it and before the hook's own effect (the sleep, the
	// panic, the error). A test uses it to act from inside the faulted site
	// at a moment the fire schedule fixes — cancel a run from inside its
	// third slowed chunk — where a timer would race the run.
	OnFire func()
}

type pointState struct {
	mu    sync.Mutex
	spec  Spec
	calls int64
	fires int64
}

var (
	// armedMask has bit p set while point p is armed; the disarmed fast path
	// of every hook is one load of it.
	armedMask atomic.Uint32
	states    [numPoints]pointState
)

// ErrInjected is the sentinel all injected errors wrap.
var ErrInjected = errors.New("faultinject: injected fault")

// Panic is the value injected panics carry, so tests (and recover sites)
// can distinguish an injection from a genuine bug.
type Panic struct {
	Point Point
	// Call is the 1-based call index that fired.
	Call int64
}

// Error makes Panic usable as an error when recovered and wrapped.
func (p Panic) Error() string {
	return fmt.Sprintf("faultinject: injected %s at call %d", p.Point, p.Call)
}

// Arm activates p with spec. Arming resets the point's call/fire counters.
func Arm(p Point, spec Spec) {
	if int(p) >= int(numPoints) {
		return
	}
	st := &states[p]
	st.mu.Lock()
	st.spec = spec
	st.calls = 0
	st.fires = 0
	st.mu.Unlock()
	for {
		old := armedMask.Load()
		if armedMask.CompareAndSwap(old, old|uint32(1)<<p) {
			return
		}
	}
}

// Disarm deactivates p. Counters are kept until the next Arm so tests can
// still read Fires after disarming.
//
//lint:allow unread -- models' pool tests stop a slow or panicking chunk mid-test with it
func Disarm(p Point) {
	if int(p) >= int(numPoints) {
		return
	}
	for {
		old := armedMask.Load()
		if armedMask.CompareAndSwap(old, old&^(uint32(1)<<p)) {
			return
		}
	}
}

// Reset disarms every point and clears all counters.
//
//lint:allow unread -- every test that arms a point, in most packages, defers it
func Reset() {
	armedMask.Store(0)
	for i := range states {
		st := &states[i]
		st.mu.Lock()
		st.spec = Spec{}
		st.calls = 0
		st.fires = 0
		st.mu.Unlock()
	}
}

// Armed reports whether p is armed. One atomic load.
func Armed(p Point) bool {
	return armedMask.Load()&(uint32(1)<<p) != 0
}

// Fire counts one call of point p and reports whether the fault fires now.
// Disarmed points return false after a single atomic load.
func Fire(p Point) bool {
	if !Armed(p) {
		return false
	}
	fired, _ := states[p].fire()
	return fired
}

func (st *pointState) fire() (bool, int64) {
	st.mu.Lock()
	hit, call := st.count()
	onFire := st.spec.OnFire
	st.mu.Unlock()
	if hit && onFire != nil {
		onFire()
	}
	return hit, call
}

// count counts one call and decides whether it fires. The caller holds mu.
func (st *pointState) count() (bool, int64) {
	st.calls++
	call := st.calls
	if st.spec.Limit > 0 && st.fires >= int64(st.spec.Limit) {
		return false, call
	}
	var hit bool
	if st.spec.Rate > 0 {
		// Map the hash to [0,1) with 53 bits of precision.
		u := float64(splitmix64(st.spec.Seed, uint64(call))>>11) / (1 << 53)
		hit = u < st.spec.Rate
	} else {
		after := int64(st.spec.After)
		if after <= 0 {
			after = 1
		}
		switch {
		case call < after:
		case call == after:
			hit = true
		case st.spec.Every > 0:
			hit = (call-after)%int64(st.spec.Every) == 0
		}
	}
	if hit {
		st.fires++
	}
	return hit, call
}

// SpecOf returns the Spec p was last armed with (the zero Spec after
// Reset). The plan-corruption points read their variant selector from it.
func SpecOf(p Point) Spec {
	st := &states[p]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.spec
}

// Calls reports how many times p's hook has been evaluated since arming.
//
//lint:allow unread -- the timeout tests of cmd/ugrapher and models' pool tests count chunk calls with it
func Calls(p Point) int64 {
	st := &states[p]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.calls
}

// Fires reports how many times p actually fired since arming.
//
//lint:allow unread -- the corruption tests of program and shard check that their point fired
func Fires(p Point) int64 {
	st := &states[p]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fires
}

// MaybePanic fires p and, if it hits, panics with a Panic value.
func MaybePanic(p Point) {
	if !Armed(p) {
		return
	}
	if fired, call := states[p].fire(); fired {
		//lint:allow panic-justification -- deliberate fault injection: the armed test asked for this panic
		panic(Panic{Point: p, Call: call})
	}
}

// MaybeSleep fires p and, if it hits, sleeps the armed Delay (default 10ms).
func MaybeSleep(p Point) {
	if !Armed(p) {
		return
	}
	st := &states[p]
	if fired, _ := st.fire(); fired {
		st.mu.Lock()
		d := st.spec.Delay
		st.mu.Unlock()
		if d <= 0 {
			d = 10 * time.Millisecond
		}
		time.Sleep(d)
	}
}

// ErrIf fires p and, if it hits, returns an error wrapping ErrInjected;
// otherwise nil.
func ErrIf(p Point) error {
	if !Armed(p) {
		return nil
	}
	if fired, call := states[p].fire(); fired {
		return fmt.Errorf("%w: %s at call %d", ErrInjected, p, call)
	}
	return nil
}

// splitmix64 is the standard 64-bit mix, keyed by seed and counter.
func splitmix64(seed, x uint64) uint64 {
	z := seed + x*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
