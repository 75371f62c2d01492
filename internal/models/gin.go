package models

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/program"
)

// GIN is the graph isomorphism network of Xu et al. with the paper-default
// five layers and hidden width 64. Each layer sums neighbour features
// (aggregation-sum — the Table 9 GIN_L*_Aggr operators), mixes in the
// centre vertex with (1+eps), and applies an MLP.
type GIN struct {
	Hidden int
	Layers int
	Eps    float32
}

// NewGIN returns the default 5-layer, hidden-64 configuration.
func NewGIN() *GIN { return &GIN{Hidden: 64, Layers: 5, Eps: 0.1} }

// Name implements Model.
func (m *GIN) Name() string { return "GIN" }

func (m *GIN) run(st stage, h vt, classes int) vt {
	for l := 0; l < m.Layers; l++ {
		out := m.Hidden
		if l == m.Layers-1 {
			out = classes
		}
		tag := fmt.Sprintf("GIN_L%d", l+1)
		s := unweightedAggr(st, tag+"_Aggr", ops.GatherSum, h, h.cols)
		// s + (1+eps)*h, then the MLP.
		h = st.addScaled(tag+"_eps_add", s, h, 1+m.Eps)
		h = st.gemm(tag+"_mlp", h, out)
		h = st.unary(tag+"_relu", h, 0, []program.Unary{{Kind: program.UnaryReLU}})
	}
	return h
}
