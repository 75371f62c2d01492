package models

import (
	"errors"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gpu"
)

// backendEngine pins both the schedule and the compute backend.
type backendEngine struct {
	fixedTestEngine
	backend core.ExecBackend
}

func (e backendEngine) ComputeBackend() core.ExecBackend { return e.backend }

// TestVerifierSilentAcrossMatrix compiles every benchmark model under every
// strategy on both host backends and asserts the mandatory static analysis
// never fires on a legal compilation — the "no false positives" half of the
// verifier's contract (the corruption tests prove the "no false negatives"
// half).
func TestVerifierSilentAcrossMatrix(t *testing.T) {
	g := smallGraph(t, 21)
	backends := []core.ExecBackend{core.ReferenceBackend(), core.NewParallelBackend(2)}
	for _, mdl := range All() {
		for _, s := range core.Strategies {
			for _, be := range backends {
				eng := backendEngine{
					fixedTestEngine: fixedTestEngine{
						dev:   gpu.V100(),
						sched: core.Schedule{Strategy: s, Group: 1, Tile: 1},
						fused: true,
					},
					backend: be,
				}
				cp, err := CompileModel(mdl, g, 12, 5, eng)
				if err != nil {
					t.Fatalf("%s/%s/%s: compile: %v", mdl.Name(), s.Code(), be.Name(), err)
				}
				if rep := cp.Verify(); !rep.OK() {
					t.Errorf("%s/%s/%s: violations on legal compile: %v",
						mdl.Name(), s.Code(), be.Name(), rep.Diags)
				}
			}
		}
	}
}

// TestCorruptionCaughtOnRealModels arms each plan-corruption point against a
// full model compilation: the verifier must catch the corruption on real
// programs, not just on toys.
func TestCorruptionCaughtOnRealModels(t *testing.T) {
	g := smallGraph(t, 22)
	cases := []struct {
		point faultinject.Point
		seed  uint64
		rule  string
	}{
		{faultinject.CorruptOperandKind, 0, analysis.RuleOperandType},
		{faultinject.CorruptFusion, 0, analysis.RuleFusionPair},
		{faultinject.CorruptBufferPlan, 0, analysis.RuleBufferAlias},
		{faultinject.CorruptAtomicFlag, 0, analysis.RuleWriteConflict},
		{faultinject.CorruptRowClosure, 0, analysis.RuleRowClosure},
		{faultinject.CorruptRowClosure, 1, analysis.RuleRowClosure},
	}
	mdl, err := ByName("GAT")
	if err != nil {
		t.Fatal(err)
	}
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			faultinject.Arm(tc.point, faultinject.Spec{Every: 1, Seed: tc.seed})
			_, err := CompileModel(mdl, g, 12, 5, eng)
			if err == nil {
				t.Fatalf("corrupted %s compile succeeded", mdl.Name())
			}
			var ve *analysis.VerifyError
			if !errors.As(err, &ve) || !ve.HasRule(tc.rule) {
				t.Fatalf("want rule %s, got %v", tc.rule, err)
			}
		})
	}
}
