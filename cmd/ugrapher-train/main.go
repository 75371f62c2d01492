// Command ugrapher-train runs the offline predictor pipeline of the paper's
// §5.4: sample random graphs, measure schedule costs on the simulator, fit
// the gradient-boosted model, validate it against grid search, and
// optionally persist it.
//
// Examples:
//
//	ugrapher-train                       # default 128-graph training run
//	ugrapher-train -graphs 32 -out model.json
//	ugrapher-train -load model.json -validate CO,PR,AR
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/ops"
	"repro/internal/predictor"
	"repro/internal/schedule"
	"repro/internal/telemetry"
)

func main() {
	graphs := flag.Int("graphs", 128, "number of random training graphs (paper: 128)")
	maxV := flag.Int("maxv", 60000, "cap on training graph vertices")
	out := flag.String("out", "", "write the trained model to this file")
	load := flag.String("load", "", "skip training; load a model from this file")
	validate := flag.String("validate", "CO,PR,AR,DD", "datasets for the Fig. 12-style validation")
	gpuName := flag.String("gpu", "V100", "device: V100 or A100")
	timeout := flag.Duration("timeout", 0, "wall-clock budget, checked at phase boundaries (0 = none); exceeding it exits with code 3")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto)")
	metricsPath := flag.String("metrics", "", "write a Prometheus text-format metrics snapshot")
	profile := flag.Bool("profile", false, "print a per-kernel profile table at exit")
	flag.Parse()

	// Exit codes: 1 = execution error, 2 = usage (bad flags), 3 = -timeout
	// exceeded. Training only ever calls the simulator, so no host backend or
	// worker setting is read here.
	obs := telemetry.CLIOptions{TracePath: *tracePath, MetricsPath: *metricsPath, Profile: *profile}
	obs.Begin()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	err := run(ctx, *graphs, *maxV, *out, *load, *validate, *gpuName)
	// Telemetry outputs are written even when the run failed, so a trace of
	// the failure is never lost.
	if ferr := obs.Finish(os.Stdout); ferr != nil {
		fmt.Fprintf(os.Stderr, "ugrapher-train: telemetry: %v\n", ferr)
		if err == nil {
			err = ferr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ugrapher-train: %v\n", err)
		if errors.Is(err, context.DeadlineExceeded) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, graphs, maxV int, out, load, validate, gpuName string) error {
	dev := gpu.V100()
	if gpuName == "A100" {
		dev = gpu.A100()
	}

	var p *predictor.Predictor
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return err
		}
		defer f.Close()
		p, err = predictor.LoadPredictor(f)
		if err != nil {
			return err
		}
		fmt.Printf("loaded model from %s\n", load)
	} else {
		cfg := predictor.DefaultTrainConfig(dev)
		cfg.NumGraphs = graphs
		cfg.MaxVertices = maxV
		fmt.Printf("training on %d random graphs (Table 7 features)...\n", graphs)
		start := time.Now()
		trained, stats, err := predictor.Train(cfg)
		if err != nil {
			return err
		}
		p = trained
		fmt.Printf("trained on %d (schedule, cost) rows in %v; train MSE(log-cycles) = %.4f\n",
			stats.Rows, time.Since(start).Round(time.Millisecond), stats.TrainMSE)
		order := p.Model.SortedImportance(predictor.NumFeatures)
		fmt.Printf("top features: ")
		for i := 0; i < 5 && i < len(order); i++ {
			fmt.Printf("%s ", predictor.FeatureNames[order[i]])
		}
		fmt.Println()
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := p.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("model written to %s\n", out)
	}

	if validate == "" {
		return nil
	}
	fmt.Printf("\nvalidation vs grid search (GCN L1 aggregation, %s):\n", dev.Name)
	fmt.Printf("%-8s %-14s %-14s %s\n", "dataset", "grid-best", "predicted", "pred/grid")
	for _, code := range strings.Split(validate, ",") {
		if err := ctx.Err(); err != nil {
			return err
		}
		g, _, err := datasets.Load(code)
		if err != nil {
			return err
		}
		task := schedule.Task{Graph: g, Op: ops.WeightedAggrSum, Feat: 16, Device: dev}.Widths(true)
		cands := schedule.GridSearch(task, schedule.PrunedSpace(task))
		if len(cands) == 0 {
			return fmt.Errorf("no schedules for %s", code)
		}
		start := time.Now()
		pick := p.Pick(task, schedule.PrunedSpace(task))
		predLatency := time.Since(start)
		picked, err := schedule.Evaluate(task, pick)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %-14s %-14s %.2f (prediction took %v)\n",
			code, cands[0].Schedule, pick,
			picked.Metrics.Cycles/cands[0].Metrics.Cycles,
			predLatency.Round(time.Microsecond))
	}
	return nil
}
