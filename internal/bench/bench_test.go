package bench

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode"
)

func quickOpts() Options {
	return Options{Quick: true}
}

// goldenPath holds one sha256 of the rendered CSV per experiment id under
// quickOpts(), in sha256sum's "<hex>  <id>" format. The simulator's output is
// deterministic, so a change that is not meant to move a simulated number
// leaves every digest as it is. `go test ./internal/bench -update` rewrites
// the entries of the tables the run produced.
const goldenPath = "testdata/quick_tables.sha256"

var updateGolden = flag.Bool("update", false, "rewrite "+goldenPath+" from the tables this run produces")

var golden struct {
	once sync.Once
	want map[string]string
	err  error

	mu  sync.Mutex
	got map[string]string // filled under -update
}

func readGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		sum, id, ok := strings.Cut(line, "  ")
		if !ok || len(sum) != 2*sha256.Size {
			return nil, fmt.Errorf("%s:%d: want \"<sha256>  <id>\", got %q", path, i+1, line)
		}
		out[id] = sum
	}
	return out, nil
}

// checkGolden compares the digest of tab's CSV with the committed one (or
// records it under -update).
func checkGolden(t *testing.T, tab *Table) {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatalf("%s csv: %v", tab.ID, err)
	}
	sum := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	if *updateGolden {
		golden.mu.Lock()
		if golden.got == nil {
			golden.got = map[string]string{}
		}
		golden.got[tab.ID] = sum
		golden.mu.Unlock()
		return
	}
	golden.once.Do(func() { golden.want, golden.err = readGolden(goldenPath) })
	if golden.err != nil {
		t.Fatal(golden.err)
	}
	want, ok := golden.want[tab.ID]
	if !ok {
		t.Fatalf("%s: no digest in %s (run with -update)", tab.ID, goldenPath)
	}
	if sum != want {
		t.Errorf("%s: CSV sha256 %s, %s has %s: a simulated number moved\n%s", tab.ID, sum, goldenPath, want, buf.String())
	}
}

// writeGolden merges the digests recorded under -update into goldenPath.
func writeGolden() error {
	if len(golden.got) == 0 {
		return nil
	}
	all, err := readGolden(goldenPath)
	if errors.Is(err, os.ErrNotExist) {
		all, err = map[string]string{}, nil
	}
	if err != nil {
		return err
	}
	for id, sum := range golden.got {
		all[id] = sum
	}
	ids := make([]string, 0, len(all))
	for id := range all {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var buf bytes.Buffer
	for _, id := range ids {
		fmt.Fprintf(&buf, "%s  %s\n", all[id], id)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath, buf.Bytes(), 0o644)
}

func TestMain(m *testing.M) {
	code := m.Run()
	if *updateGolden {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// runQuick executes an experiment in quick mode, sanity-checks the table and
// compares its CSV with the committed digest (checkGolden).
// It marks the calling test parallel: experiments only read the simulator and
// the mutex/Once-guarded dataset, sweep and predictor caches, and nearly all
// of the package's time is spent inside them.
func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	t.Parallel()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(quickOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id {
		t.Errorf("%s: table id %q", id, tab.ID)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	for _, cell := range tab.Header {
		if reportsHostTime(cell) {
			t.Errorf("%s: header cell %q reports host time; tables are simulated cycles only", id, cell)
		}
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) && len(row) > len(tab.Header) {
			t.Errorf("%s row %d: %d cells vs %d headers", id, i, len(row), len(tab.Header))
		}
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatalf("%s render: %v", id, err)
	}
	if !strings.Contains(buf.String(), id) {
		t.Errorf("%s render missing id", id)
	}
	checkGolden(t, tab)
	return tab
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig3", "fig7", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig2", "table8",
		"table2", "table3", "table4", "table6", "table9",
		"ablation-space", "ablation-sim", "ablation-predictor", "ext-training",
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(All()), len(want))
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id should fail")
	}
}

// reportsHostTime says whether a header cell names a host wall-clock column
// (a word "ms", or anything "wall…"): the package's one job is simulated
// cycles and the ratios and counts derived from them; host time is measured
// by benchmark/ alone. runQuick holds every experiment's header to it.
func reportsHostTime(cell string) bool {
	for _, word := range strings.FieldsFunc(strings.ToLower(cell), func(r rune) bool { return !unicode.IsLetter(r) }) {
		if word == "ms" || strings.HasPrefix(word, "wall") {
			return true
		}
	}
	return false
}

func TestReportsHostTime(t *testing.T) {
	for cell, want := range map[string]bool{
		"compile ms":      true,
		"interp ms/run":   true,
		"host wall-clock": true,
		"Wall":            true,
		"cycles":          false,
		"systems":         false,
		"DGL L2 hit":      false,
		"pred/grid":       false,
	} {
		if got := reportsHostTime(cell); got != want {
			t.Errorf("reportsHostTime(%q) = %v, want %v", cell, got, want)
		}
	}
}

func TestOrderInterleaves(t *testing.T) {
	ids := []string{}
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	// table2 and table3 precede fig7; fig13 precedes table9.
	pos := map[string]int{}
	for i, id := range ids {
		pos[id] = i
	}
	if !(pos["fig1"] < pos["table2"] && pos["table2"] < pos["fig3"] && pos["fig3"] < pos["fig7"]) {
		t.Errorf("ordering wrong: %v", ids)
	}
}

func TestTable2Exact(t *testing.T) {
	tab := runQuick(t, "table2")
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "TOTAL" || last[3] != "160" {
		t.Errorf("census total row = %v", last)
	}
}

func TestTable3TargetsHit(t *testing.T) {
	tab := runQuick(t, "table3")
	if len(tab.Rows) != 3 {
		t.Fatalf("quick mode should cover 3 datasets, got %d", len(tab.Rows))
	}
}

func TestTable4AllValid(t *testing.T) {
	tab := runQuick(t, "table4")
	for _, row := range tab.Rows {
		if !strings.HasPrefix(row[6], "true") {
			t.Errorf("representation row invalid: %v", row)
		}
	}
}

func TestTable6NoFreeLunch(t *testing.T) {
	tab := runQuick(t, "table6")
	// No strategy row may improve locality, parallelism and work-efficiency
	// simultaneously (the paper's impossible triangle).
	for _, row := range tab.Rows[1:] { // skip the thread-edge reference row
		ups := 0
		for _, c := range row[4:7] {
			if c == "up" {
				ups++
			}
		}
		if ups == 3 {
			t.Errorf("strategy %q improves all three metrics: %v", row[0], row)
		}
	}
}

func TestFig1NoUniversalBaseline(t *testing.T) {
	tab := runQuick(t, "fig1")
	// uGrapher (last column) should be at or near 1.00 everywhere; every
	// baseline column should exceed 1.05 somewhere.
	ncols := len(tab.Header)
	worstUG := 0.0
	baselineWorst := make([]float64, ncols-2)
	for _, row := range tab.Rows {
		for i, cell := range row[2:] {
			if cell == "-" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if i == ncols-3 { // uGrapher column
				if v > worstUG {
					worstUG = v
				}
			} else if v > baselineWorst[i] {
				baselineWorst[i] = v
			}
		}
	}
	if worstUG > 1.10 {
		t.Errorf("uGrapher normalized latency up to %.2f; should stay near 1.00", worstUG)
	}
	for i, w := range baselineWorst[:3] {
		if w < 1.05 {
			t.Errorf("baseline %s never loses (worst %.2f); heatmap shape broken", tab.Header[2+i], w)
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	tab := runQuick(t, "fig3")
	cells := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		key := row[0] + "|" + row[1]
		occ, _ := strconv.ParseFloat(row[3], 64)
		sme, _ := strconv.ParseFloat(row[4], 64)
		l2, _ := strconv.ParseFloat(row[5], 64)
		cells[key] = map[string]float64{"occ": occ, "sme": sme, "l2": l2}
	}
	for _, op := range []string{"weighted-aggr-sum", "unweighted-aggr-max"} {
		if cells[op+"|AR"]["occ"] >= cells[op+"|PR"]["occ"] {
			t.Errorf("%s: imbalanced AR occupancy %.2f should be below balanced PR %.2f",
				op, cells[op+"|AR"]["occ"], cells[op+"|PR"]["occ"])
		}
		if cells[op+"|CO"]["l2"] <= cells[op+"|SW"]["l2"] {
			t.Errorf("%s: small CO L2 hit %.2f should exceed large SW %.2f",
				op, cells[op+"|CO"]["l2"], cells[op+"|SW"]["l2"])
		}
		if cells[op+"|CO"]["sme"] >= cells[op+"|SW"]["sme"] {
			t.Errorf("%s: small CO SM efficiency %.2f should be below large SW %.2f",
				op, cells[op+"|CO"]["sme"], cells[op+"|SW"]["sme"])
		}
	}
}

func TestFig7WinnersVary(t *testing.T) {
	tab := runQuick(t, "fig7")
	winners := map[string]bool{}
	for _, row := range tab.Rows {
		winners[row[6]] = true
	}
	if len(winners) < 2 {
		t.Errorf("optimal basic strategy should vary, got only %v", winners)
	}
}

func TestFig17BasicLeavesGap(t *testing.T) {
	tab := runQuick(t, "fig17")
	anyGap := false
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[7], 64)
		if err != nil {
			t.Fatalf("bad best-basic cell %q", row[7])
		}
		if v < 0.999 {
			t.Errorf("basic strategy beats tuned optimum: %v", row)
		}
		if v > 1.05 {
			anyGap = true
		}
	}
	if !anyGap {
		t.Error("expected at least one dataset where tuning beats all basic strategies by >5%")
	}
}

func TestFig18KnobsMatter(t *testing.T) {
	tab := runQuick(t, "fig18")
	lo, hi := 1e18, 0.0
	for _, row := range tab.Rows {
		for _, cell := range row[2:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi/lo < 1.5 {
		t.Errorf("grouping/tiling sweep spread %.2fx; expected meaningful variation", hi/lo)
	}
}

func TestTable9AllStrategiesAppear(t *testing.T) {
	tab := runQuick(t, "table9")
	strategies := map[string]bool{}
	for _, row := range tab.Rows {
		for _, cell := range row[2:] {
			if len(cell) >= 2 {
				strategies[cell[:2]] = true
			}
		}
	}
	if len(strategies) < 2 {
		t.Errorf("table9 winners too uniform: %v", strategies)
	}
}
