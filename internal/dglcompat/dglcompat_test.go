package dglcompat

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func testWrap(t *testing.T, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(200)
	for i := 0; i < 1500; i++ {
		b.AddEdge(int32(rng.Intn(200)), int32(rng.Intn(200)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return Wrap(g, nil)
}

// CopyU builds copy_u(field, out): message = source feature.
func CopyU(field, outField string) MessageFn {
	return MessageFn{op: ops.CopyLHS, aKind: tensor.SrcV, aField: field, outField: outField, name: "copy_u"}
}

// CopyE builds copy_e(field, out): message = edge feature.
func CopyE(field, outField string) MessageFn {
	return MessageFn{op: ops.CopyRHS, bKind: tensor.EdgeK, bField: field, outField: outField, name: "copy_e"}
}

func fillND(t *testing.T, w *Graph, name string, cols int, seed int64) *tensor.Dense {
	t.Helper()
	d := tensor.NewDense(w.g.NumVertices(), cols)
	d.FillRandom(rand.New(rand.NewSource(seed)), 1)
	if err := w.SetNData(name, d); err != nil {
		t.Fatal(err)
	}
	return d
}

func fillED(t *testing.T, w *Graph, name string, cols int, seed int64) *tensor.Dense {
	t.Helper()
	d := tensor.NewDense(w.g.NumEdges(), cols)
	d.FillRandom(rand.New(rand.NewSource(seed)), 1)
	if err := w.SetEData(name, d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestGCNLayerViaUpdateAll reproduces the paper's Fig. 11 usage: GCN's
// aggregation as update_all(u_mul_e('h','w','m'), sum('m','rst')).
func TestGCNLayerViaUpdateAll(t *testing.T) {
	w := testWrap(t, 1)
	h := fillND(t, w, "h", 16, 2)
	ew := fillED(t, w, "w", 1, 3)

	msg, err := Binary("u_mul_e", "h", "w", "m")
	if err != nil {
		t.Fatal(err)
	}
	red, err := Reduce("sum", "m", "rst")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := w.UpdateAll(msg, red)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Cycles <= 0 {
		t.Error("no metrics reported")
	}
	rst, ok := w.NData("rst")
	if !ok {
		t.Fatal("rst not stored in node data")
	}

	// Reference via the core API directly.
	ref := tensor.NewDense(w.g.NumVertices(), 16)
	err = core.Reference(w.g, ops.WeightedAggrSum, core.Operands{
		A: tensor.Src(h), B: tensor.Edge(ew), C: tensor.Dst(ref),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rst.AllClose(ref, 1e-4, 1e-4) {
		t.Errorf("update_all result differs from reference (maxdiff %v)", rst.MaxDiff(ref))
	}
}

// TestGATMsgCViaApplyEdges: apply_edges(u_add_v) produces per-edge sums.
func TestGATMsgCViaApplyEdges(t *testing.T) {
	w := testWrap(t, 4)
	x := fillND(t, w, "el", 8, 5)

	msg, err := Binary("u_add_v", "el", "el", "e")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ApplyEdges(msg); err != nil {
		t.Fatal(err)
	}
	e, ok := w.EData("e")
	if !ok {
		t.Fatal("edge output missing")
	}
	// Spot-check edge 0.
	src, dst := w.g.EdgeEndpoints(0)
	for j := 0; j < 8; j++ {
		want := x.At(int(src), j) + x.At(int(dst), j)
		if got := e.At(0, j); got != want {
			t.Fatalf("edge 0 col %d = %v, want %v", j, got, want)
		}
	}
}

func TestCopyUAndCopyE(t *testing.T) {
	w := testWrap(t, 6)
	fillND(t, w, "h", 4, 7)
	red, err := Reduce("max", "m", "pooled")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.UpdateAll(CopyU("h", "m"), red); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.NData("pooled"); !ok {
		t.Fatal("pooled missing")
	}

	fillED(t, w, "ew", 4, 8)
	redSum, err := Reduce("mean", "m", "meaned")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.UpdateAll(CopyE("ew", "m"), redSum); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.NData("meaned"); !ok {
		t.Fatal("meaned missing")
	}
}

func TestBinaryNameParsing(t *testing.T) {
	good := []string{"u_add_v", "v_sub_u", "u_mul_e", "e_div_v", "u_div_e"}
	for _, name := range good {
		if _, err := Binary(name, "a", "b", "m"); err != nil {
			t.Errorf("Binary(%q): %v", name, err)
		}
	}
	bad := []string{"", "u_mul", "x_mul_e", "u_pow_e", "u_copy_lhs_e", "u_mul_q"}
	for _, name := range bad {
		if _, err := Binary(name, "a", "b", "m"); err == nil {
			t.Errorf("Binary(%q) should fail", name)
		}
	}
}

func TestReduceNameParsing(t *testing.T) {
	for _, name := range []string{"sum", "max", "min", "mean"} {
		if _, err := Reduce(name, "m", "o"); err != nil {
			t.Errorf("Reduce(%q): %v", name, err)
		}
	}
	for _, name := range []string{"", "prod", "copy_rhs", "null"} {
		if _, err := Reduce(name, "m", "o"); err == nil {
			t.Errorf("Reduce(%q) should fail", name)
		}
	}
}

func TestMissingFieldErrors(t *testing.T) {
	w := testWrap(t, 9)
	msg, _ := Binary("u_mul_e", "h", "w", "m")
	red, _ := Reduce("sum", "m", "rst")
	if _, err := w.UpdateAll(msg, red); err == nil {
		t.Error("missing fields should fail")
	}
	fillND(t, w, "h", 4, 10)
	if _, err := w.UpdateAll(msg, red); err == nil {
		t.Error("missing edge field should fail")
	}
}

func TestFrameShapeValidation(t *testing.T) {
	w := testWrap(t, 11)
	if err := w.SetNData("h", tensor.NewDense(3, 4)); err == nil {
		t.Error("wrong ndata rows should fail")
	}
	if err := w.SetEData("w", tensor.NewDense(3, 1)); err == nil {
		t.Error("wrong edata rows should fail")
	}
	if _, ok := w.NData("nope"); ok {
		t.Error("missing field lookup should report false")
	}
	if _, ok := w.EData("nope"); ok {
		t.Error("missing edge field lookup should report false")
	}
}

// TestBroadcastWeights: scalar edge weights broadcast across wide features,
// exactly as GCN uses them.
func TestBroadcastWeights(t *testing.T) {
	w := testWrap(t, 14)
	fillND(t, w, "h", 12, 15)
	ew := tensor.NewDense(w.g.NumEdges(), 1)
	ew.Fill(2)
	if err := w.SetEData("w", ew); err != nil {
		t.Fatal(err)
	}
	msg, _ := Binary("u_mul_e", "h", "w", "m")
	red, _ := Reduce("sum", "m", "rst")
	if _, err := w.UpdateAll(msg, red); err != nil {
		t.Fatal(err)
	}
	// Against unweighted sum: doubling weights doubles output.
	redPlain, _ := Reduce("sum", "m", "plain")
	if _, err := w.UpdateAll(CopyU("h", "m"), redPlain); err != nil {
		t.Fatal(err)
	}
	rst, _ := w.NData("rst")
	plain, _ := w.NData("plain")
	scaled := plain.Clone()
	for i := range scaled.Data {
		scaled.Data[i] *= 2
	}
	if !rst.AllClose(scaled, 1e-3, 1e-3) {
		t.Errorf("broadcast weighting wrong (maxdiff %v)", rst.MaxDiff(scaled))
	}
}
