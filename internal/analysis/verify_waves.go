package analysis

import "fmt"

// Wave-schedule rules. The compiler (program/waves.go) derives per-step
// read/write effect sets over arena storage, builds a step-dependence DAG
// and schedules provably independent steps into waves that may execute
// concurrently; these rules re-derive every hazard from the effect
// intervals alone and prove the DAG and the wave partition safe. The
// checker deliberately shares no code with the builder: a bug in the
// dependence construction cannot also hide here.

// Interval is one contiguous arena range a step reads or writes, in float32
// elements: [Off, Off+Len).
type Interval struct {
	Off, Len int
}

// intersects reports whether the two ranges share at least one element.
// Empty intervals intersect nothing.
func (iv Interval) intersects(o Interval) bool {
	return iv.Len > 0 && o.Len > 0 && iv.Off < o.Off+o.Len && o.Off < iv.Off+iv.Len
}

// StepEffects is the verifier's view of one compiled step's memory effects:
// which arena ranges it reads and writes. In-place steps carry the same
// interval in both Reads and Writes.
type StepEffects struct {
	// Name labels the step for diagnostics.
	Name string
	// Reads and Writes are the step's arena effect intervals.
	Reads, Writes []Interval
}

// DepKind classifies one step-dependence edge.
type DepKind uint8

const (
	// DepTrue is a read-after-write dependence (producer -> consumer).
	DepTrue DepKind = iota
	// DepAnti is a write-after-read dependence (reader -> overwriter).
	DepAnti
	// DepOutput is a write-after-write dependence (same storage reused).
	DepOutput
)

var depKindNames = [...]string{"true", "anti", "output"}

// String names the dependence kind.
func (k DepKind) String() string {
	if int(k) < len(depKindNames) {
		return depKindNames[k]
	}
	return "?"
}

// DepEdge is one edge of the step-dependence DAG: step To must not start
// before step From finishes. Steps are identified by execution-order index,
// so a well-formed edge always points forward (From < To).
type DepEdge struct {
	From, To int
	Kind     DepKind
}

// WaveFacts bundles everything VerifyWaves inspects: the per-step effect
// sets, the dependence DAG the compiler built, and the wave schedule
// (topological levels of steps claimed independent).
type WaveFacts struct {
	Subject string
	Steps   []StepEffects
	Edges   []DepEdge
	// Waves lists step indices per wave, in execution order; steps within
	// one wave are claimed safe to run concurrently.
	Waves [][]int
}

// VerifyWaves runs the wave rules over f and returns a *VerifyError
// listing all violations, or nil when the schedule verifies.
func VerifyWaves(f WaveFacts) error {
	var diags []Diagnostic
	diags = append(diags, checkStepDeps(&f)...)
	diags = append(diags, checkWaveLegal(&f)...)
	return Finish(diags)
}

// depKey identifies one (from, to, kind) hazard for set membership.
type depKey struct {
	from, to int
	kind     DepKind
}

// stepName labels step i for diagnostics.
func stepName(f *WaveFacts, i int) string {
	if i >= 0 && i < len(f.Steps) && f.Steps[i].Name != "" {
		return fmt.Sprintf("%d (%s)", i, f.Steps[i].Name)
	}
	return fmt.Sprintf("%d", i)
}

// anyIntersect reports whether any interval of a intersects any of b.
func anyIntersect(a, b []Interval) bool {
	for _, x := range a {
		for _, y := range b {
			if x.intersects(y) {
				return true
			}
		}
	}
	return false
}

// deriveHazards recomputes, from the effect sets alone, every dependence
// the DAG must carry between steps i < j.
func deriveHazards(a, b *StepEffects) []DepKind {
	var kinds []DepKind
	if anyIntersect(a.Writes, b.Reads) {
		kinds = append(kinds, DepTrue)
	}
	if anyIntersect(a.Reads, b.Writes) {
		kinds = append(kinds, DepAnti)
	}
	if anyIntersect(a.Writes, b.Writes) {
		kinds = append(kinds, DepOutput)
	}
	return kinds
}

// checkStepDeps verifies step-deps-sound: the DAG is well-formed (forward,
// in-range edges) and contains every hazard independently re-derived from
// the slot intervals.
func checkStepDeps(f *WaveFacts) []Diagnostic {
	var diags []Diagnostic
	n := len(f.Steps)
	have := make(map[depKey]bool, len(f.Edges))
	for _, e := range f.Edges {
		if e.From < 0 || e.To >= n || e.From >= e.To {
			diags = append(diags, Diagnostic{
				Rule: RuleStepDeps,
				Msg:  fmt.Sprintf("malformed %s edge %d -> %d (steps run 0..%d, edges must point forward)", e.Kind, e.From, e.To, n-1),
				Hint: "dependence edges follow execution order",
			})
			continue
		}
		have[depKey{e.From, e.To, e.Kind}] = true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, kind := range deriveHazards(&f.Steps[i], &f.Steps[j]) {
				if have[depKey{i, j, kind}] {
					continue
				}
				diags = append(diags, Diagnostic{
					Rule: RuleStepDeps, Node: f.Steps[j].Name,
					Msg:  fmt.Sprintf("%s dependence between steps %s and %s is missing from the DAG", kind, stepName(f, i), stepName(f, j)),
					Hint: "every effect-derived hazard needs an edge, or the wave scheduler may overlap the pair",
				})
			}
		}
	}
	return diags
}

// checkWaveLegal verifies wave-legal: the waves partition the steps, every
// DAG edge crosses from an earlier wave to a later one, and no two steps
// sharing a wave carry a write-write hazard or a read-write alias.
func checkWaveLegal(f *WaveFacts) []Diagnostic {
	var diags []Diagnostic
	n := len(f.Steps)
	waveOf := make([]int, n)
	for i := range waveOf {
		waveOf[i] = -1
	}
	for w, wave := range f.Waves {
		for _, s := range wave {
			switch {
			case s < 0 || s >= n:
				diags = append(diags, Diagnostic{
					Rule: RuleWaveLegal,
					Msg:  fmt.Sprintf("wave %d schedules step %d, outside 0..%d", w, s, n-1),
					Hint: "waves must reference compiled steps",
				})
			case waveOf[s] >= 0:
				diags = append(diags, Diagnostic{
					Rule: RuleWaveLegal, Node: f.Steps[s].Name,
					Msg:  fmt.Sprintf("step %s scheduled in waves %d and %d", stepName(f, s), waveOf[s], w),
					Hint: "each step runs exactly once",
				})
			default:
				waveOf[s] = w
			}
		}
	}
	for s, w := range waveOf {
		if w < 0 {
			diags = append(diags, Diagnostic{
				Rule: RuleWaveLegal, Node: f.Steps[s].Name,
				Msg:  fmt.Sprintf("step %s is scheduled in no wave", stepName(f, s)),
				Hint: "the waves must partition every step",
			})
		}
	}
	for _, e := range f.Edges {
		if e.From < 0 || e.To >= n || e.From >= e.To {
			continue // already reported by step-deps-sound
		}
		if waveOf[e.From] >= 0 && waveOf[e.To] >= 0 && waveOf[e.From] >= waveOf[e.To] {
			diags = append(diags, Diagnostic{
				Rule: RuleWaveLegal, Node: f.Steps[e.To].Name,
				Msg: fmt.Sprintf("%s dependence %s -> %s not respected: waves %d -> %d",
					e.Kind, stepName(f, e.From), stepName(f, e.To), waveOf[e.From], waveOf[e.To]),
				Hint: "a dependent step must run in a strictly later wave",
			})
		}
	}
	for w, wave := range f.Waves {
		for i := 0; i < len(wave); i++ {
			for j := i + 1; j < len(wave); j++ {
				a, b := wave[i], wave[j]
				if a < 0 || a >= n || b < 0 || b >= n {
					continue
				}
				ea, eb := &f.Steps[a], &f.Steps[b]
				switch {
				case anyIntersect(ea.Writes, eb.Writes):
					diags = append(diags, Diagnostic{
						Rule: RuleWaveLegal, Node: eb.Name,
						Msg:  fmt.Sprintf("steps %s and %s share wave %d with a write-write hazard", stepName(f, a), stepName(f, b), w),
						Hint: "concurrent writers to one arena range race",
					})
				case anyIntersect(ea.Writes, eb.Reads) || anyIntersect(ea.Reads, eb.Writes):
					diags = append(diags, Diagnostic{
						Rule: RuleWaveLegal, Node: eb.Name,
						Msg:  fmt.Sprintf("steps %s and %s share wave %d with a read-write alias", stepName(f, a), stepName(f, b), w),
						Hint: "a reader and a writer of one arena range must be in different waves",
					})
				}
			}
		}
	}
	return diags
}
