package bench

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/schedule"
)

// Experiments behind the paper's §1-2 motivation: Fig. 1 (no framework wins
// everywhere), Fig. 3 (DGL's static kernels leave metrics on the table),
// Tables 2-4 (operator census, dataset census, unified representation).

func init() {
	register("fig1", "Normalized end-to-end latency heatmap, 4 systems (V100)", runFig1)
	register("fig3", "DGL static-kernel limitations: occupancy / SM efficiency / L2 hit", runFig3)
	register("table2", "Graph operator classification census (DGL's 160 operators)", runTable2)
	register("table3", "Dataset statistics (synthetic stand-ins vs paper targets)", runTable3)
	register("table4", "Unified abstraction coverage of all operator classes", runTable4)
	register("table6", "Measured trade-offs of the parallelization strategies", runTable6)
}

// fig1Models are the representative models of the heatmap.
var fig1Models = []string{"GCN", "GIN", "GAT", "SSum"}

func runFig1(o Options) (*Table, error) {
	codes := o.pick(allDatasetCodes(), []string{"CO", "PR", "AR"})
	graphs, err := loadGraphs(codes)
	if err != nil {
		return nil, err
	}
	dev := device("V100")
	engines := enginesFor(dev)

	t := &Table{
		ID:     "fig1",
		Title:  "Normalized latency (1.00 = fastest system for that cell); rows dataset x model",
		Header: append([]string{"dataset", "model"}, engineNames(engines)...),
	}
	for _, code := range codes {
		h := graphs[code]
		for _, mname := range fig1Models {
			m, err := models.ByName(mname)
			if err != nil {
				return nil, err
			}
			cells := make([]float64, len(engines))
			best := 0.0
			for i, eng := range engines {
				if !baselineSupports(eng.Name(), mname) {
					cells[i] = -1
					continue
				}
				rep, err := m.InferenceCost(h.g, h.spec.Feat, h.spec.Class, eng)
				if err != nil {
					return nil, err
				}
				cells[i] = rep.Total
				if best == 0 || rep.Total < best {
					best = rep.Total
				}
			}
			row := []string{code, mname}
			for _, c := range cells {
				if c < 0 {
					row = append(row, "-")
				} else {
					row = append(row, f2(c/best))
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"paper's shape: every baseline is >1.00 somewhere; uGrapher at or near 1.00 everywhere")
	return t, nil
}

func runFig3(o Options) (*Table, error) {
	// The paper contrasts imbalanced (AR, SB) vs balanced (PR, DD) graphs on
	// occupancy, and small (CO, CI) vs large (SW, OV) graphs on SM
	// efficiency and L2 hit rate, under DGL's static kernels, feature 32.
	imbalancePair := o.pick([]string{"AR", "SB", "PR", "DD"}, []string{"AR", "PR"})
	sizePair := o.pick([]string{"CO", "CI", "SW", "OV"}, []string{"CO", "SW"})
	if len(o.Datasets) > 0 {
		imbalancePair, sizePair = o.Datasets, o.Datasets
	}
	dev := device("V100")
	// DGL's static fused-aggregation kernel.
	dglSched := core.Schedule{Strategy: core.WarpVertex, Group: 1, Tile: 1}

	opsUnder := []struct {
		label     string
		op        ops.OpInfo
		widthOneB bool
	}{
		{"weighted-aggr-sum", ops.WeightedAggrSum, true},
		{"unweighted-aggr-max", ops.AggrMax, false},
	}
	t := &Table{
		ID:     "fig3",
		Title:  "DGL static kernel metrics, feature size 32 (V100)",
		Header: []string{"operator", "dataset", "group", "occupancy", "sm_efficiency", "l2_hit"},
	}
	seen := map[string]bool{}
	runSet := func(codes []string, group string) error {
		graphs, err := loadGraphs(codes)
		if err != nil {
			return err
		}
		for _, code := range codes {
			for _, ou := range opsUnder {
				key := ou.label + code
				if seen[key] {
					continue
				}
				seen[key] = true
				h := graphs[code]
				feat, aCols, bCols := core.OperandWidths(ou.op, 32, ou.widthOneB)
				m, err := core.Estimate(h.g, ou.op, feat, aCols, bCols, dglSched, dev, o.simOpts()...)
				if err != nil {
					return err
				}
				t.Rows = append(t.Rows, []string{
					ou.label, code, group,
					f2(m.Occupancy), f2(m.SMEfficiency), f2(m.L2HitRate),
				})
			}
		}
		return nil
	}
	if err := runSet(imbalancePair, "imbalance-vs-balance"); err != nil {
		return nil, err
	}
	if err := runSet(sizePair, "small-vs-large"); err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper's shape: imbalanced graphs (AR,SB) show lower occupancy than balanced (PR,DD);",
		"small graphs (CO,CI) show higher L2 hit but lower SM efficiency than large (SW,OV)")
	return t, nil
}

func runTable2(o Options) (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Operator census by class and tensor types (paper totals: 11/1/20/4/44/80 = 160)",
		Header: []string{"class", "input", "output", "count"},
	}
	total := 0
	for _, row := range ops.Census() {
		t.Rows = append(t.Rows, []string{
			row.Class.String(), row.InputKinds, row.OutputKind, fmt.Sprintf("%d", row.Count),
		})
		total += row.Count
	}
	t.Rows = append(t.Rows, []string{"TOTAL", "", "", fmt.Sprintf("%d", total)})
	return t, nil
}

func runTable3(o Options) (*Table, error) {
	codes := o.pick(allDatasetCodes(), []string{"CO", "PR", "AR"})
	graphs, err := loadGraphs(codes)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "table3",
		Title:  "Dataset statistics: synthetic graphs vs paper targets",
		Header: []string{"dataset", "#vertex", "#edge", "std_nnz(target)", "std_nnz(ours)", "gini", "#feature", "#class"},
	}
	for _, code := range codes {
		h := graphs[code]
		st := h.g.ComputeStats()
		t.Rows = append(t.Rows, []string{
			h.spec.Name,
			fmt.Sprintf("%d", st.NumVertices),
			fmt.Sprintf("%d", st.NumEdges),
			f2(h.spec.Std), f2(st.StdInDegree), f2(st.GiniInDegree),
			fmt.Sprintf("%d", h.spec.Feat), fmt.Sprintf("%d", h.spec.Class),
		})
	}
	return t, nil
}

func runTable4(o Options) (*Table, error) {
	t := &Table{
		ID:     "table4",
		Title:  "op_info coverage: every registry operator validates and round-trips its class",
		Header: []string{"class", "edge_op", "gather_op", "A", "B", "C", "valid"},
	}
	type key struct{ cls, a, b, c string }
	groups := map[key]map[string]bool{}
	gathers := map[key]map[string]bool{}
	counts := map[key]int{}
	allValid := map[key]bool{}
	for _, e := range ops.Registry() {
		k := key{e.Class.String(), e.Info.AKind.String(), e.Info.BKind.String(), e.Info.CKind.String()}
		if groups[k] == nil {
			groups[k] = map[string]bool{}
			gathers[k] = map[string]bool{}
			allValid[k] = true
		}
		groups[k][e.Info.EdgeOp.String()] = true
		gathers[k][e.Info.GatherOp.String()] = true
		counts[k]++
		if e.Info.Validate() != nil {
			allValid[k] = false
		}
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.cls != b.cls {
			return a.cls < b.cls
		}
		if a.a != b.a {
			return a.a < b.a
		}
		if a.b != b.b {
			return a.b < b.b
		}
		return a.c < b.c
	})
	for _, k := range keys {
		t.Rows = append(t.Rows, []string{
			k.cls, setString(groups[k]), setString(gathers[k]), k.a, k.b, k.c,
			fmt.Sprintf("%v (%d ops)", allValid[k], counts[k]),
		})
	}
	return t, nil
}

func runTable6(o Options) (*Table, error) {
	// Measure the trade-off directions on a representative task:
	// aggregation-sum, PU dataset, feature 64, V100. Directions are
	// relative to the thread-edge row, as in the paper's Table 6.
	code := "PU"
	if len(o.Datasets) > 0 {
		code = o.Datasets[0]
	}
	graphs, err := loadGraphs([]string{code})
	if err != nil {
		return nil, err
	}
	h := graphs[code]
	dev := device("V100")
	task := schedule.Task{Graph: h.g, Op: ops.AggrSum, Feat: 64, ACols: 64, Device: dev}

	rows := []struct {
		label string
		sched core.Schedule
	}{
		{"Thread-Edge", core.Schedule{Strategy: core.ThreadEdge, Group: 1, Tile: 1}},
		{"Warp-Edge", core.Schedule{Strategy: core.WarpEdge, Group: 1, Tile: 1}},
		{"Warp-Vertex", core.Schedule{Strategy: core.WarpVertex, Group: 1, Tile: 1}},
		{"Thread-Vertex", core.Schedule{Strategy: core.ThreadVertex, Group: 1, Tile: 1}},
		{"V/E-Grouping (TE,G8)", core.Schedule{Strategy: core.ThreadEdge, Group: 8, Tile: 1}},
		{"Feature Tiling (WE,T2)", core.Schedule{Strategy: core.WarpEdge, Group: 1, Tile: 2}},
	}
	t := &Table{
		ID:     "table6",
		Title:  fmt.Sprintf("Measured trade-offs, aggregation-sum on %s feat=64 (V100); arrows vs Thread-Edge", code),
		Header: []string{"strategy", "locality(L1+L2 hit)", "parallelism(blocks)", "work-eff(1/insts)", "L", "P", "W"},
	}
	var base [3]float64
	for i, r := range rows {
		c, err := schedule.Evaluate(task, r.sched, o.simOpts()...)
		if err != nil {
			return nil, err
		}
		m := c.Metrics
		locality := m.L1HitRate + (1-m.L1HitRate)*m.L2HitRate
		parallelism := float64(m.NumBlocks)
		workEff := 1 / m.Insts
		if i == 0 {
			base = [3]float64{locality, parallelism, workEff}
		}
		arrow := func(v, b float64) string {
			switch {
			case v > b*1.15:
				return "up"
			case v < b*0.85:
				return "down"
			default:
				return "-"
			}
		}
		t.Rows = append(t.Rows, []string{
			r.label, f2(locality), fmt.Sprintf("%.0f", parallelism),
			fmt.Sprintf("%.3g", workEff),
			arrow(locality, base[0]), arrow(parallelism, base[1]), arrow(workEff, base[2]),
		})
	}
	t.Notes = append(t.Notes,
		"paper's Table 6 shape: no row improves all three columns at once")
	return t, nil
}

// --- small shared helpers for this file ---

func allDatasetCodes() []string {
	return []string{"CO", "CI", "PU", "PR", "AR", "PP", "SB", "CA", "DD", "AM06", "AM05", "TW", "YE", "SW", "OV"}
}

func engineNames(engs []models.Engine) []string {
	out := make([]string, len(engs))
	for i, e := range engs {
		out[i] = e.Name()
	}
	return out
}

func setString(s map[string]bool) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sortStrings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += "/"
		}
		out += k
	}
	return out
}
