package models

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/tensor"
)

// Hardening tests for the model layer: context-aware forward passes and
// training epochs.

// TestForwardCtxPricesNothing holds the functional pass to computing: an
// engine with no device would panic in the first GEMM, elementwise or
// graph-operator estimate, and the device may not change a logit bit.
func TestForwardCtxPricesNothing(t *testing.T) {
	g := smallGraph(t, 21)
	x := tensor.NewDense(g.NumVertices(), 16)
	x.FillRandom(rand.New(rand.NewSource(4)), 1)
	priced := FixedEngine{
		EngineName: "oracle", Dev: gpu.V100(),
		AggrSchedule: core.DefaultSchedule, MsgCSchedule: core.DefaultSchedule,
		Fuses: true, Compute: core.ReferenceBackend(),
	}
	deviceless := priced
	deviceless.Dev = nil
	for _, m := range All() {
		want, err := ForwardCtx(context.Background(), m, g, x, 5, &priced)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		got, err := ForwardCtx(context.Background(), m, g, x, 5, &deviceless)
		if err != nil {
			t.Fatalf("%s without a device: %v", m.Name(), err)
		}
		if i := got.BitDiff(want); i >= 0 {
			t.Errorf("%s: logits without a device differ at element %d: %v vs %v",
				m.Name(), i, got.Data[i], want.Data[i])
		}
	}
}

func TestForwardCtxCancelled(t *testing.T) {
	g := smallGraph(t, 22)
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	x := tensor.NewDense(g.NumVertices(), 16)
	x.FillRandom(rand.New(rand.NewSource(5)), 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ForwardCtx(ctx, NewGCN(), g, x, 5, eng)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForwardCtx(cancelled) = %v, want context.Canceled", err)
	}
}
