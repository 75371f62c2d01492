package program

import (
	"context"
	"math"

	"repro/internal/tensor"
)

// Test-only entry points for the external test package (rows_test.go), which
// imports internal/models and so cannot live inside package program.

// RunRowsForced is RunRows with the crossover off: a rows-capable program
// runs the row set whatever its closure weighs. The BitDiff matrix uses it to
// put row sets the rule would send to the full pass through the row path, and
// the crossover sweep to time both sides of the rule.
func (cp *CompiledProgram) RunRowsForced(ctx context.Context, x *tensor.Dense, rows []int32) (*tensor.Dense, RowRun, error) {
	return cp.runRows(ctx, x, rows, math.Inf(1))
}

// PoisonArena overwrites every arena-resident value — the input copy and
// every step's output — with NaN, so that a run which reads a row it did not
// write this run shows it in its result.
func (cp *CompiledProgram) PoisonArena() {
	nan := float32(math.NaN())
	cp.input.Fill(nan)
	for i := range cp.steps {
		cp.steps[i].out.Fill(nan)
	}
}

// RowFullShare is the crossover constant RunRows decides by.
const RowFullShare = rowFullShare

// Verified lists everything Verify reads: the recorded program, the compiled
// one, the buffer plan, the wave schedule and, per step, its name, the values
// it reads and writes and its recorded row reads. The purity test compares a
// deep copy of it before Verify with it after.
func (cp *CompiledProgram) Verified() []any {
	v := []any{cp.pre, cp.prog, cp.plan, cp.slotOffsets, cp.depEdges, cp.waves}
	for i := range cp.steps {
		st := &cp.steps[i]
		v = append(v, st.name, st.reads, st.vx2, st.vout, st.rowReads, st.rowDeclined)
	}
	return v
}
