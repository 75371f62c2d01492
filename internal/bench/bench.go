// Package bench regenerates every table and figure of the paper's
// evaluation (§2 motivation and §7 evaluation) on the simulator substrate.
// Each experiment is registered by its paper id ("fig13", "table9", ...) and
// produces a Table of rows mirroring what the paper plots; EXPERIMENTS.md
// records the measured outputs against the paper's claims.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/baselines"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/predictor"
)

// Options configure an experiment run.
type Options struct {
	// Datasets restricts the dataset codes swept (nil = experiment default).
	Datasets []string
	// Quick shrinks sweeps for tests: fewer datasets, smaller spaces,
	// coarser simulation.
	Quick bool
	// SampleBlocks overrides simulator trace fidelity (0 = default).
	SampleBlocks int
}

// simOpts converts options to simulator options.
func (o Options) simOpts() []gpu.Option {
	n := o.SampleBlocks
	if n == 0 {
		if o.Quick {
			n = 32
		} else {
			n = 96
		}
	}
	return []gpu.Option{gpu.WithMaxSampledBlocks(n)}
}

// pick returns the dataset codes for an experiment, honouring the option
// filter and Quick mode.
func (o Options) pick(def []string, quick []string) []string {
	if len(o.Datasets) > 0 {
		return o.Datasets
	}
	if o.Quick && quick != nil {
		return quick
	}
	return def
}

// Table is one regenerated table or figure.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the table as CSV (id and title as comment lines).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Experiment is one registered table/figure generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) (*Table, error)
}

var registry []Experiment

func register(id, title string, run func(o Options) (*Table, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All lists the registered experiments in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts table2 < fig3 < fig7 < ... by the numeric suffix, figures
// and tables interleaved as in the paper.
func orderKey(id string) int {
	num := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			num = num*10 + int(c-'0')
		}
	}
	if num == 0 {
		return 1 << 20 // ablations and other extras sort after the paper's ids
	}
	if strings.HasPrefix(id, "table") {
		return num*10 + 1
	}
	return num * 10
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (run `list`)", id)
}

// --- shared helpers ---

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// device resolves a device name.
func device(name string) *gpu.Device {
	if name == "A100" {
		return gpu.A100()
	}
	return gpu.V100()
}

// enginesFor returns the four compared systems for a device: the three
// fixed baselines plus tuned uGrapher, in the paper's plotting order.
// A fresh uGrapher engine per call keeps its tuning cache device-scoped.
func enginesFor(dev *gpu.Device) []models.Engine {
	return []models.Engine{
		baselines.NewDGL(dev), baselines.NewPyG(dev), baselines.NewGNNAdvisor(dev),
		models.NewTunedEngine(dev),
	}
}

// trainedPredictor lazily trains the strategy predictor once per process
// (used by fig12; the CLI can persist it).
var (
	predOnce sync.Once
	pred     *predictor.Predictor
	predErr  error
)

// Predictor returns the process-wide trained predictor.
func Predictor(quick bool) (*predictor.Predictor, error) {
	predOnce.Do(func() {
		cfg := predictor.DefaultTrainConfig(gpu.V100())
		if quick {
			cfg.NumGraphs = 24
			cfg.MaxVertices = 8000
			cfg.SchedulesPerTask = 12
			cfg.GBDT.Rounds = 60
		}
		pred, _, predErr = predictor.Train(cfg)
	})
	return pred, predErr
}

func sortStrings(s []string) { sort.Strings(s) }

// baselineSupports reports whether the named engine implements the model
// (uGrapher and the test engines support everything).
func baselineSupports(engine, model string) bool {
	return baselines.SupportsModel(engine, model)
}

// graphHandle pairs a loaded dataset graph with its spec.
type graphHandle struct {
	g    *graph.Graph
	spec datasets.Spec
}

// loadGraphs loads the named datasets.
func loadGraphs(codes []string) (map[string]graphHandle, error) {
	graphs := map[string]graphHandle{}
	for _, c := range codes {
		g, spec, err := datasets.Load(c)
		if err != nil {
			return nil, err
		}
		graphs[c] = graphHandle{g: g, spec: spec}
	}
	return graphs, nil
}
