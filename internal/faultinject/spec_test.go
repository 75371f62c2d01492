package faultinject

import (
	"strings"
	"testing"
	"time"
)

func TestParseAndArm(t *testing.T) {
	defer Reset()
	err := ParseAndArm("kernel-panic-load:every=1;queue-stall:delay=250ms,after=2;slow-handler")
	if err != nil {
		t.Fatal(err)
	}
	if !Armed(KernelPanicLoad) || !Armed(QueueStall) || !Armed(SlowHandler) {
		t.Fatalf("points not armed: load=%v stall=%v handler=%v",
			Armed(KernelPanicLoad), Armed(QueueStall), Armed(SlowHandler))
	}
	if got := SpecOf(QueueStall); got.Delay != 250*time.Millisecond || got.After != 2 {
		t.Errorf("QueueStall spec = %+v, want Delay=250ms After=2", got)
	}
	if got := SpecOf(KernelPanicLoad); got.Every != 1 {
		t.Errorf("KernelPanicLoad spec = %+v, want Every=1", got)
	}
}

func TestParseAndArmRejectsBadInput(t *testing.T) {
	defer Reset()
	for _, s := range []string{
		"no-such-point:every=1",
		"queue-stall:bogus=3",
		"queue-stall:delay",
		"queue-stall:after=x",
		// Values that parse but mean nothing to Fire.
		"queue-stall:after=-3",
		"queue-stall:every=-1",
		"queue-stall:limit=-1",
		"queue-stall:delay=-1s",
		"nan-poke:rate=7",
		"nan-poke:rate=-0.5",
		"nan-poke:rate=NaN",
	} {
		if err := ParseAndArm(s); err == nil {
			t.Errorf("ParseAndArm(%q) = nil, want error", s)
		} else if !strings.HasPrefix(err.Error(), "faultinject: ") {
			t.Errorf("ParseAndArm(%q) error %q lacks the package prefix", s, err)
		}
		if Enabled() {
			t.Errorf("ParseAndArm(%q) armed a point", s)
			Reset()
		}
	}
	// Validation is atomic: the valid half of a half-bad string must not arm.
	if err := ParseAndArm("slow-handler;no-such-point"); err == nil {
		t.Fatal("ParseAndArm with unknown point = nil, want error")
	} else if !strings.Contains(err.Error(), "valid:") {
		t.Errorf("error %q does not list valid points", err)
	}
	if Armed(SlowHandler) {
		t.Error("SlowHandler armed despite parse error later in the string")
	}
}

// TestSpecLimit: a Limit-capped point fires exactly Limit times and then
// stays silent while still counting calls.
func TestSpecLimit(t *testing.T) {
	defer Reset()
	Arm(KernelPanicLoad, Spec{After: 1, Every: 1, Limit: 3})
	fired := 0
	for i := 0; i < 10; i++ {
		if Fire(KernelPanicLoad) {
			fired++
		}
	}
	if fired != 3 {
		t.Errorf("fired %d times, want 3 (Limit)", fired)
	}
	if Calls(KernelPanicLoad) != 10 {
		t.Errorf("calls = %d, want 10", Calls(KernelPanicLoad))
	}
	if Fires(KernelPanicLoad) != 3 {
		t.Errorf("Fires = %d, want 3", Fires(KernelPanicLoad))
	}
}

// TestKernelPanicLoadName pins the point's printed name: the serve -faults
// flag and the e2e suite both address it by this string.
func TestKernelPanicLoadName(t *testing.T) {
	if KernelPanicLoad.String() != "kernel-panic-load" {
		t.Errorf("KernelPanicLoad.String() = %q", KernelPanicLoad.String())
	}
	if p, ok := PointByName("kernel-panic-load"); !ok || p != KernelPanicLoad {
		t.Errorf("PointByName round-trip failed: %v %v", p, ok)
	}
}

// specPoints lists the points a spec string names, the way ParseAndArm
// splits it, for FuzzParseAndArm's "every named point armed" half.
func specPoints(s string) []string {
	var names []string
	for _, part := range strings.Split(s, ";") {
		if part = strings.TrimSpace(part); part != "" {
			name, _, _ := strings.Cut(part, ":")
			names = append(names, strings.TrimSpace(name))
		}
	}
	return names
}

// FuzzParseAndArm: whatever the -faults flag is handed, the parser does not
// panic, and it ends one of two ways — an error carrying the package prefix
// with nothing armed, or every named point armed with a spec Fire can act on.
func FuzzParseAndArm(f *testing.F) {
	// The accepted forms; testdata/fuzz/FuzzParseAndArm holds the rejected
	// and borderline ones.
	for _, s := range []string{
		"", "slow-handler", "kernel-panic-load:every=1",
		"queue-stall:delay=250ms,every=1;slow-handler:delay=50ms",
		"nan-poke:rate=0.01,seed=7,limit=3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		defer Reset()
		if err := ParseAndArm(s); err != nil {
			if !strings.HasPrefix(err.Error(), "faultinject: ") {
				t.Errorf("ParseAndArm(%q) error %q lacks the package prefix", s, err)
			}
			if Enabled() {
				t.Errorf("ParseAndArm(%q) failed (%v) yet armed a point", s, err)
			}
			return
		}
		for _, name := range specPoints(s) {
			p, ok := PointByName(name)
			if !ok || !Armed(p) {
				t.Fatalf("ParseAndArm(%q) = nil but point %q is not armed", s, name)
			}
			sp := SpecOf(p)
			if sp.After < 0 || sp.Every < 0 || sp.Limit < 0 || sp.Delay < 0 || !(sp.Rate >= 0 && sp.Rate <= 1) {
				t.Errorf("ParseAndArm(%q) armed %s with %+v", s, name, sp)
			}
			Fire(p)
		}
	})
}
