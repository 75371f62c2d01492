package models

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/program"
)

// Sage is GraphSage (Hamilton et al.) with its original hidden width 256 and
// two layers, parameterised by aggregator — the paper evaluates SageSum,
// SageMax and SageMean as separate benchmarks. Each layer aggregates
// neighbour features (an unweighted aggregation: the §2.2 lightweight
// operator), concatenates with the centre features and applies a linear
// transform. The wide hidden dimension makes the dense GEMM share large,
// which is why the paper's per-model speedups are smallest for SageMax.
type Sage struct {
	Aggregator ops.GatherOp
	Hidden     int
	Layers     int
}

// NewSage returns the default 2-layer, hidden-256 configuration with the
// given aggregator (GatherSum, GatherMax or GatherMean).
func NewSage(agg ops.GatherOp) *Sage {
	return &Sage{Aggregator: agg, Hidden: 256, Layers: 2}
}

// Name implements Model, using the paper's abbreviations: SSum, SMax, SMean.
func (m *Sage) Name() string {
	switch m.Aggregator {
	case ops.GatherMax:
		return "SMax"
	case ops.GatherMean:
		return "SMean"
	default:
		return "SSum"
	}
}

func (m *Sage) run(st stage, h vt, classes int) vt {
	for l := 0; l < m.Layers; l++ {
		out := m.Hidden
		if l == m.Layers-1 {
			out = classes
		}
		tag := fmt.Sprintf("SageL%d", l+1)
		s := unweightedAggr(st, tag+"_Aggr", m.Aggregator, h, h.cols)
		// concat(h, s) @ W: charged as a single GEMM with K = 2 x cols.
		cat := st.concat(tag+"_concat", h, s)
		h = st.gemm(tag+"_w_concat", cat, out)
		h = st.unary(tag+"_relu", h, 0, []program.Unary{{Kind: program.UnaryReLU}})
	}
	return h
}
