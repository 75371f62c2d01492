package models

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/program"
	"repro/internal/tensor"
)

// GCN is the two-layer graph convolutional network of Kipf & Welling, with
// the paper-default hidden width 16. Each layer transforms features densely
// then runs the weighted-aggr-sum graph operator (u_mul_e + sum — the
// paper's §2.2 heavyweight example) with normalised edge weights.
type GCN struct {
	Hidden int
	Layers int
}

// NewGCN returns the default 2-layer, hidden-16 configuration.
func NewGCN() *GCN { return &GCN{Hidden: 16, Layers: 2} }

// Name implements Model.
func (m *GCN) Name() string { return "GCN" }

func (m *GCN) run(st stage, h vt, classes int) vt {
	w := st.edgeScalar()
	for l := 0; l < m.Layers; l++ {
		out := m.Hidden
		if l == m.Layers-1 {
			out = classes
		}
		tag := fmt.Sprintf("GCN_L%d", l+1)
		h = st.gemm(tag+"_xw", h, out)
		h = fusedAggr(st, tag+"_Aggr", ops.EdgeMul, ops.GatherSum,
			asKind(h, tensor.SrcV), w, out)
		h = st.unary(tag+"_bias_relu", h, 1, []program.Unary{{Kind: program.UnaryReLU}})
	}
	return h
}
