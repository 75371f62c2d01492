package program_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/program"
)

// BenchmarkRunRows is the measurement behind program.rowFullShare and the
// "Row-subset runs" tables of EXPERIMENTS.md (`make bench-kernels`): GCN, GAT
// and GIN on PR (regular, 3.7 in-edges a row, local) and AR (skewed, 32), two
// workers, for requests of 4, 64, 1024 and 16384 random rows —
//
//   - rule: RunRows as served, the walk and whichever pass it chose; `rows` is
//     1 for a row run and 0 for the full pass, `r0/V` the share of the input
//     the answer was computed from, `work-share` the rule's quantity (rows plus
//     in-edges of the graph steps, times the workers, over the full pass's);
//   - forced: the same request with the crossover off — the row run the rule
//     would have refused included;
//   - full: Run, the pass the rule falls back to.
//
// The crossover is where forced meets full: the work-share at which it does is
// the break-even rowFullShare's comment records per model and graph; the
// constant sits under it for GIN and for GAT on AR, not for GCN and GAT on PR
// or GCN on AR.
func BenchmarkRunRows(b *testing.B) {
	ctx := context.Background()
	const workers = 2
	for _, abbr := range []string{"PR", "AR"} {
		g := loadGraph(b, abbr)
		x := features(g, 42)
		for _, m := range []models.Model{models.NewGCN(), models.NewGAT(), models.NewGIN()} {
			cp := hostProgram(b, m, g, workers)
			full := fullWork(cp, g)
			name := m.Name() + "/" + abbr
			b.Run(name+"/full", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := cp.Run(x); err != nil {
						b.Fatal(err)
					}
				}
			})
			for _, n := range []int{4, 64, 256, 1024, 4096, 16384} {
				rng := rand.New(rand.NewSource(int64(n)))
				rows := make([]int32, n)
				for i := range rows {
					rows[i] = int32(rng.Intn(g.NumVertices()))
				}
				report := func(b *testing.B, info program.RowRun) {
					mode := 0.0
					if info.Rows {
						mode = 1
					}
					b.ReportMetric(mode, "rows")
					b.ReportMetric(float64(info.RowsIn)/float64(g.NumVertices()), "r0/V")
					b.ReportMetric(float64(info.Work)*workers/full, "work-share")
				}
				b.Run(fmt.Sprintf("%s/rows=%d/rule", name, n), func(b *testing.B) {
					var info program.RowRun
					var err error
					for i := 0; i < b.N; i++ {
						if _, info, err = cp.RunRows(ctx, x, rows); err != nil {
							b.Fatal(err)
						}
					}
					report(b, info)
				})
				b.Run(fmt.Sprintf("%s/rows=%d/forced", name, n), func(b *testing.B) {
					var info program.RowRun
					var err error
					for i := 0; i < b.N; i++ {
						if _, info, err = cp.RunRowsForced(ctx, x, rows); err != nil {
							b.Fatal(err)
						}
					}
					report(b, info)
				})
			}
		}
	}
}
