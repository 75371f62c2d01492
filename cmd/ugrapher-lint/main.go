// Command ugrapher-lint runs the repo's static-analysis layer from the
// command line: the source linter (default) and the IR/plan verifier (-ir).
//
// Usage:
//
//	ugrapher-lint                      # lint ./internal/... and ./cmd/...
//	ugrapher-lint ./internal/core      # lint specific package dirs
//	ugrapher-lint -ir                  # verify compiled plans for every
//	                                   # model x strategy x backend
//	ugrapher-lint -rules               # list the rule ids
//
// The default source target set includes cmd/ugrapher-lint itself, so every
// run lints the linter as a self-test.
//
// Exit codes: 0 = clean, 1 = findings/violations, 2 = usage or internal
// error. Scripts (and make check) rely on this contract.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/models"
)

func main() {
	irMode := flag.Bool("ir", false, "verify compiled model programs (IR/plan rules) instead of linting source")
	rules := flag.Bool("rules", false, "list every rule id, verifier and source linter, by the check that runs it, and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ugrapher-lint [flags] [package-dirs...]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *rules {
		listRules(os.Stdout)
		return
	}

	var (
		clean bool
		err   error
	)
	if *irMode {
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
		clean, err = verifyIR(os.Stdout)
	} else {
		clean, err = lintSource(os.Stdout, flag.Args())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ugrapher-lint: %v\n", err)
		os.Exit(2)
	}
	if !clean {
		os.Exit(1)
	}
}

// listRules prints every rule id from the lists the checks themselves iterate,
// so the output cannot drift from what runs.
func listRules(w *os.File) {
	for _, group := range []struct {
		what  string
		rules []string
	}{
		{"program (every program.Compile; -ir)", analysis.ProgramRules},
		{"plan and lowering (every core.Compile; -ir)", analysis.PlanRules},
		{"wave schedule (every program.Compile; -ir)", analysis.WaveRules},
		{"row-subset runs (every program.Compile; -ir)", analysis.RowRules},
		{"shard plan (every shard.Partition)", []string{analysis.RuleShardNoAlias}},
		{"source (default mode)", analysis.LintRules},
	} {
		fmt.Fprintf(w, "%s:\n", group.what)
		for _, r := range group.rules {
			fmt.Fprintf(w, "  %s\n", r)
		}
	}
}

// lintSource runs the source linter over the given package patterns
// (default: the whole module's internal and cmd trees).
func lintSource(w *os.File, patterns []string) (clean bool, err error) {
	if len(patterns) == 0 {
		patterns = []string{"./internal/...", "./cmd/..."}
	}
	dirs, err := analysis.ExpandDirs(patterns)
	if err != nil {
		return false, err
	}
	findings, err := analysis.LintDirs(dirs)
	if err != nil {
		return false, err
	}
	for _, f := range findings {
		fmt.Fprintln(w, f)
	}
	fmt.Fprintf(w, "ugrapher-lint: %d packages, %d findings\n", len(dirs), len(findings))
	return len(findings) == 0, nil
}

// verifyIR compiles every model under every basic strategy on each host
// backend — reference, parallel, and the sharded parallel backend — in both
// fusion modes (cost-modeled regions and the classic pair-only rewrite)
// against a small synthetic graph, and reports the static verifier's result
// for each plan.
func verifyIR(w *os.File) (clean bool, err error) {
	rng := rand.New(rand.NewSource(7))
	const n, m = 300, 2500
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		return false, err
	}

	backends := []core.ExecBackend{
		core.ReferenceBackend(),
		core.NewParallelBackend(0),
		core.NewShardedParallelBackend(0, 4),
	}
	fusionModes := []struct {
		name     string
		pairOnly bool
	}{
		{"regions", false},
		{"pair", true},
	}
	violations := 0
	checked := 0
	for _, mdl := range models.All() {
		for _, strat := range core.Strategies {
			for _, backend := range backends {
				for _, fm := range fusionModes {
					eng := &models.FixedEngine{
						EngineName:     "verify",
						Dev:            gpu.V100(),
						AggrSchedule:   core.Schedule{Strategy: strat, Group: 1, Tile: 1},
						MsgCSchedule:   core.Schedule{Strategy: strat, Group: 1, Tile: 1},
						Fuses:          true,
						PairFusionOnly: fm.pairOnly,
						Compute:        backend,
					}
					cp, cerr := models.CompileModel(mdl, g, 12, 5, eng)
					if cerr != nil {
						// Compilation itself rejects violating plans; count it as
						// a violation of this combination.
						fmt.Fprintf(w, "FAIL %-6s %-3s %-9s %-7s compile: %v\n", mdl.Name(), strat.Code(), backend.Name(), fm.name, cerr)
						violations++
						continue
					}
					rep := cp.Verify()
					checked++
					if rep.OK() {
						// Which cells compiled a row-resident region — the
						// parallel backend's, flat and sharded, for the models
						// with an edge-side chain — shows in the line.
						fmt.Fprintf(w, "ok   %-6s %-3s %-9s %-7s %d rules, %d row-resident regions\n", mdl.Name(), strat.Code(), backend.Name(), fm.name, len(rep.RulesChecked), cp.Stats().RowRegions)
						continue
					}
					violations += len(rep.Diags)
					for _, d := range rep.Diags {
						fmt.Fprintf(w, "FAIL %-6s %-3s %-9s %-7s %s\n", mdl.Name(), strat.Code(), backend.Name(), fm.name, d)
					}
				}
			}
		}
	}
	fmt.Fprintf(w, "ugrapher-lint: %d plans verified, %d violations\n", checked, violations)
	return violations == 0, nil
}
