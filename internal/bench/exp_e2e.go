package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/reorder"
	"repro/internal/schedule"
)

// End-to-end experiments: Fig. 13 (normalized inference time, all systems,
// both GPUs), Figs. 14-15 (per-model / per-dataset speedup summaries),
// Fig. 16 (hardware metrics behind the gains), Fig. 19 (orthogonality to
// node renumbering).

func init() {
	register("fig13", "End-to-end inference time, 2 GPUs x 6 models x datasets x 4 systems", runFig13)
	register("fig14", "Per-model speedup of uGrapher over each baseline (geomean across datasets)", runFig14)
	register("fig15", "Per-dataset speedup of uGrapher over each baseline (geomean across models)", runFig15)
	register("fig16", "GPU metrics for the SageMax layer-2 aggregation: DGL vs uGrapher", runFig16)
	register("fig19", "Node renumbering (Rabbit-style) composes with uGrapher's gains", runFig19)
}

// e2eCell is one (device, model, dataset, engine) measurement.
type e2eCell struct {
	Device  string
	Model   string
	Dataset string
	Engine  string
	Cycles  float64
}

// e2eCache memoises the expensive full sweep per option signature so fig13,
// fig14 and fig15 share one run.
var (
	e2eMu    sync.Mutex
	e2eCache = map[string][]e2eCell{}
)

func e2eKey(o Options, codes []string) string {
	return fmt.Sprintf("q=%v sb=%d ds=%s", o.Quick, o.SampleBlocks, strings.Join(codes, ","))
}

func e2eModelNames(o Options) []string {
	if o.Quick {
		return []string{"GCN", "GAT", "SMax"}
	}
	return []string{"GCN", "GIN", "GAT", "SMax", "SSum", "SMean"}
}

func e2eDevices(o Options) []string {
	if o.Quick {
		return []string{"V100"}
	}
	return []string{"V100", "A100"}
}

// runE2E performs (or retrieves) the full sweep.
func runE2E(o Options) ([]e2eCell, []string, error) {
	codes := o.pick(allDatasetCodes(), []string{"CO", "PR", "AR"})
	key := e2eKey(o, codes)
	// Held across the sweep: concurrent callers (the package's tests run in
	// parallel) wait for the one run instead of each repeating it.
	e2eMu.Lock()
	defer e2eMu.Unlock()
	if cached, ok := e2eCache[key]; ok {
		return cached, codes, nil
	}

	graphs, err := loadGraphs(codes)
	if err != nil {
		return nil, nil, err
	}
	var cells []e2eCell
	for _, devName := range e2eDevices(o) {
		dev := device(devName)
		engines := enginesFor(dev)
		for _, code := range codes {
			h := graphs[code]
			for _, mname := range e2eModelNames(o) {
				m, err := models.ByName(mname)
				if err != nil {
					return nil, nil, err
				}
				for _, eng := range engines {
					if !baselineSupports(eng.Name(), mname) {
						continue
					}
					rep, err := models.InferenceCost(m, h.g, h.spec.Feat, h.spec.Class, eng)
					if err != nil {
						return nil, nil, err
					}
					cells = append(cells, e2eCell{
						Device: devName, Model: mname, Dataset: code,
						Engine: eng.Name(), Cycles: rep.Total,
					})
				}
			}
		}
	}
	e2eCache[key] = cells
	return cells, codes, nil
}

func runFig13(o Options) (*Table, error) {
	cells, _, err := runE2E(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig13",
		Title:  "End-to-end inference time normalized to the fastest system per cell",
		Header: []string{"gpu", "dataset", "model", "DGL", "PyG", "GNNAdvisor", "uGrapher"},
	}
	type key struct{ dev, ds, model string }
	group := map[key]map[string]float64{}
	var order []key
	for _, c := range cells {
		k := key{c.Device, c.Dataset, c.Model}
		if group[k] == nil {
			group[k] = map[string]float64{}
			order = append(order, k)
		}
		group[k][c.Engine] = c.Cycles
	}
	for _, k := range order {
		vals := group[k]
		best := 0.0
		for _, v := range vals {
			if best == 0 || v < best {
				best = v
			}
		}
		row := []string{k.dev, k.ds, k.model}
		for _, eng := range []string{"DGL", "PyG", "GNNAdvisor", "uGrapher"} {
			if v, ok := vals[eng]; ok {
				row = append(row, f2(v/best))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper's headline: geomean speedups of uGrapher over DGL/PyG/GNNAdvisor of 3.04/3.75/1.76 (V100) and 4.07/5.13/2.04 (A100); see fig14/fig15 for the aggregates")
	return t, nil
}

// speedups computes uGrapher's speedup over each baseline per (device, groupBy).
func speedups(cells []e2eCell, groupBy func(e2eCell) string) map[string]map[string][]float64 {
	// device|group -> baseline -> ratios
	type key struct{ dev, ds, model string }
	ug := map[key]float64{}
	for _, c := range cells {
		if c.Engine == "uGrapher" {
			ug[key{c.Device, c.Dataset, c.Model}] = c.Cycles
		}
	}
	out := map[string]map[string][]float64{}
	for _, c := range cells {
		if c.Engine == "uGrapher" {
			continue
		}
		u, ok := ug[key{c.Device, c.Dataset, c.Model}]
		if !ok || u == 0 {
			continue
		}
		gk := c.Device + "|" + groupBy(c)
		if out[gk] == nil {
			out[gk] = map[string][]float64{}
		}
		out[gk][c.Engine] = append(out[gk][c.Engine], c.Cycles/u)
	}
	return out
}

func speedupTable(id, title, groupLabel string, o Options, groupBy func(e2eCell) string) (*Table, error) {
	cells, _, err := runE2E(o)
	if err != nil {
		return nil, err
	}
	sp := speedups(cells, groupBy)
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"gpu", groupLabel, "vs DGL", "vs PyG", "vs GNNAdvisor"},
	}
	keys := make([]string, 0, len(sp))
	for k := range sp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts := strings.SplitN(k, "|", 2)
		row := []string{parts[0], parts[1]}
		for _, eng := range []string{"DGL", "PyG", "GNNAdvisor"} {
			if rs := sp[k][eng]; len(rs) > 0 {
				row = append(row, f2(geomean(rs))+"x")
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	// Overall geomeans per device.
	overall := speedups(cells, func(e2eCell) string { return "ALL" })
	okeys := make([]string, 0, len(overall))
	for k := range overall {
		okeys = append(okeys, k)
	}
	sort.Strings(okeys)
	for _, k := range okeys {
		parts := strings.SplitN(k, "|", 2)
		row := []string{parts[0], "GEOMEAN"}
		for _, eng := range []string{"DGL", "PyG", "GNNAdvisor"} {
			if rs := overall[k][eng]; len(rs) > 0 {
				row = append(row, f2(geomean(rs))+"x")
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runFig14(o Options) (*Table, error) {
	return speedupTable("fig14",
		"uGrapher speedup per model (geomean over datasets)", "model",
		o, func(c e2eCell) string { return c.Model })
}

func runFig15(o Options) (*Table, error) {
	return speedupTable("fig15",
		"uGrapher speedup per dataset (geomean over models)", "dataset",
		o, func(c e2eCell) string { return c.Dataset })
}

func runFig16(o Options) (*Table, error) {
	// SageMax layer-2 aggregation (aggr-max at hidden width 256): DGL's
	// static kernel vs uGrapher's tuned schedule, nvprof-style metrics.
	codes := o.pick([]string{"CO", "PR", "AR", "DD", "TW", "OV"}, []string{"CO", "PR", "AR"})
	graphs, err := loadGraphs(codes)
	if err != nil {
		return nil, err
	}
	dev := device("V100")
	tuner := schedule.NewTuner(o.simOpts()...)
	dglSched := core.Schedule{Strategy: core.WarpVertex, Group: 1, Tile: 1}
	n := table9Ops[6] // SageMax_L2_Aggr
	t := &Table{
		ID:     "fig16",
		Title:  "SageMax L2 aggregation metrics (V100): DGL static kernel vs uGrapher tuned",
		Header: []string{"dataset", "system", "schedule", "sm_efficiency", "l2_hit", "occupancy", "cycles"},
	}
	for _, code := range codes {
		h := graphs[code]
		task := taskFor(h, n, dev)
		dglCand, err := schedule.Evaluate(task, dglSched, o.simOpts()...)
		if err != nil {
			return nil, err
		}
		best, ok := tuner.Tune(task)
		if !ok {
			return nil, fmt.Errorf("bench: tuning failed for %s", code)
		}
		for _, r := range []struct {
			system string
			c      schedule.Candidate
		}{{"DGL", dglCand}, {"uGrapher", best}} {
			m := r.c.Metrics
			t.Rows = append(t.Rows, []string{
				code, r.system, r.c.Schedule.String(),
				f2(m.SMEfficiency), f2(m.L2HitRate), f2(m.Occupancy),
				fmt.Sprintf("%.0f", m.Cycles),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper's shape: uGrapher improves SM utilization, L2 hit rate and achieved occupancy")
	return t, nil
}

func runFig19(o Options) (*Table, error) {
	// GCN on V100 with and without Rabbit-style renumbering, DGL vs
	// uGrapher: reordering helps both, and uGrapher keeps its edge —
	// scheduling and data layout are orthogonal.
	codes := o.pick([]string{"CO", "PU", "AR", "CA", "AM06"}, []string{"CO", "AR"})
	graphs, err := loadGraphs(codes)
	if err != nil {
		return nil, err
	}
	dev := device("V100")
	m := models.NewGCN()
	t := &Table{
		ID:     "fig19",
		Title:  "GCN inference (V100), original vs renumbered vertex ids, normalized per dataset to the best cell",
		Header: []string{"dataset", "DGL", "DGL+reorder", "uGrapher", "uGrapher+reorder"},
	}
	for _, code := range codes {
		h := graphs[code]
		reordered, err := reorder.Apply(h.g, reorder.BFS(h.g))
		if err != nil {
			return nil, err
		}
		layouts := []struct {
			name string
			g    *graph.Graph
		}{{"orig", h.g}, {"reord", reordered}}
		vals := map[string]float64{}
		best := 0.0
		for _, layout := range layouts {
			for _, eng := range []models.Engine{enginesFor(dev)[0], models.NewTunedEngine(dev)} {
				rep, err := models.InferenceCost(m, layout.g, h.spec.Feat, h.spec.Class, eng)
				if err != nil {
					return nil, err
				}
				vals[eng.Name()+"/"+layout.name] = rep.Total
				if best == 0 || rep.Total < best {
					best = rep.Total
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			code,
			f2(vals["DGL/orig"] / best), f2(vals["DGL/reord"] / best),
			f2(vals["uGrapher/orig"] / best), f2(vals["uGrapher/reord"] / best),
		})
	}
	t.Notes = append(t.Notes,
		"paper's shape: uGrapher retains a substantial improvement with renumbering enabled")
	return t, nil
}
