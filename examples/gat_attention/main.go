// gat_attention runs the full GAT model — the paper's most operator-diverse
// benchmark — on a real (synthetic Table 3) dataset, comparing the DGL
// baseline against uGrapher's tuned engine and printing the per-operator
// schedule choices that make the difference.
//
//	go run ./examples/gat_attention
package main

import (
	"fmt"
	"log"

	"repro/internal/baselines"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/models"
)

func main() {
	g, spec, err := datasets.Load("PU") // pubmed: 19.7K vertices, 99K edges
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: |V|=%d |E|=%d feat=%d classes=%d\n\n",
		spec.Name, g.NumVertices(), g.NumEdges(), spec.Feat, spec.Class)

	dev := gpu.V100()
	gat := models.NewGAT()

	for _, eng := range []models.Engine{baselines.NewDGL(dev), models.NewTunedEngine(dev)} {
		rep, err := models.InferenceCost(gat, g, spec.Feat, spec.Class, eng)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s: total %.0f cycles (graph %.0f, dense %.0f) ===\n",
			eng.Name(), rep.Total, rep.Graph, rep.Dense)
		for _, op := range rep.PerOp {
			if op.Kind != "graph" {
				continue
			}
			fmt.Printf("  %-22s %-11s %10.0f cycles  occ=%.2f l2=%.2f\n",
				op.Name, op.Schedule, op.Cycles, op.Metrics.Occupancy, op.Metrics.L2HitRate)
		}
		fmt.Println()
	}

	fmt.Println("note how uGrapher picks a different schedule per operator:")
	fmt.Println("the tiny-width attention message creation and the wide weighted")
	fmt.Println("aggregation have opposite needs, which no static kernel serves.")
}
