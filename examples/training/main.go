// training demonstrates the beyond-the-paper extension: estimating a full
// GNN training step beside a forward pass compiled ONCE. models.CompileModel
// records the model as a program, fuses and schedules it, and plans its
// buffers once; every epoch's forward pass reuses the compiled kernels and
// arena. models.TrainingCost prices the whole step. The backward
// pass is cost-modelled: each backward graph operator is itself a graph
// operator on the REVERSED graph, so it flows through the same uGrapher
// abstraction and gets its own tuned schedule — often a different one than
// its forward twin, because transposing the graph transposes the degree
// distribution.
//
//	go run ./examples/training
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/models"
	"repro/internal/tensor"
)

func main() {
	g, spec, err := datasets.Load("PP") // ppi: skewed, mid-size
	if err != nil {
		log.Fatal(err)
	}
	dev := gpu.V100()
	eng := models.NewTunedEngine(dev)
	m := models.NewGCN()

	fwd, err := models.InferenceCost(m, g, spec.Feat, spec.Class, eng)
	if err != nil {
		log.Fatal(err)
	}

	// Compile once: record -> fuse -> assign schedules -> plan buffers.
	compileStart := time.Now()
	cp, err := models.CompileModel(m, g, spec.Feat, spec.Class, eng)
	if err != nil {
		log.Fatal(err)
	}
	compileTime := time.Since(compileStart)
	train, err := models.TrainingCost(m, g, spec.Feat, spec.Class, eng)
	if err != nil {
		log.Fatal(err)
	}

	// Epoch loop (forward passes only: the backward pass is priced, not
	// computed): every iteration reuses the compiled kernels and arena — no
	// retuning, no relowering, no per-stage tensor allocation.
	x := tensor.NewDense(g.NumVertices(), spec.Feat)
	x.FillRandom(rand.New(rand.NewSource(7)), 1)
	const epochs = 10
	epochStart := time.Now()
	var logits *tensor.Dense
	for e := 0; e < epochs; e++ {
		if logits, err = cp.Run(x); err != nil {
			log.Fatal(err)
		}
	}
	perEpoch := time.Since(epochStart) / epochs
	st := cp.Stats()
	fmt.Printf("compiled program: %d graph kernels (%d pairs fused), %d buffer slots, arena %.1f MiB\n",
		st.GraphKernels, st.FusedPairs, st.BufferSlots, float64(st.ArenaFloats)*4/(1<<20))
	fmt.Printf("compile: %v once; epochs: %v each (%d run, logits %dx%d)\n\n",
		compileTime.Round(time.Millisecond), perEpoch.Round(time.Microsecond),
		epochs, logits.Rows, logits.Cols)

	fmt.Printf("GCN on %s (|V|=%d |E|=%d)\n", spec.Name, g.NumVertices(), g.NumEdges())
	fmt.Printf("inference: %12.0f cycles (graph %.0f%%)\n",
		fwd.Total, 100*fwd.Graph/fwd.Total)
	fmt.Printf("training:  %12.0f cycles (graph %.0f%%), %.2fx inference\n\n",
		train.Total, 100*train.Graph/train.Total, train.Total/fwd.Total)

	fmt.Println("graph operators in the training step (fwd and bwd tuned independently):")
	for _, op := range train.PerOp {
		if op.Kind != "graph" {
			continue
		}
		dir := "fwd"
		if strings.Contains(op.Name, "_bwd") {
			dir = "bwd"
		}
		fmt.Printf("  %-22s %s  %-11s %10.0f cycles\n", op.Name, dir, op.Schedule, op.Cycles)
	}
	fmt.Println("\nbackward aggregations run on the transposed graph; on skewed graphs")
	fmt.Println("the transpose has a different hot side, so schedules can differ.")
}
