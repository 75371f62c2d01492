package gbdt

import (
	"math"
	"math/rand"
	"testing"
)

func makeData(n int, f func(x []float64) float64, dims int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, dims)
		for j := range row {
			row[j] = rng.Float64()*10 - 5
		}
		X[i] = row
		y[i] = f(row)
	}
	return X, y
}

func TestFitStepFunction(t *testing.T) {
	// A single-feature step function: trees should nail it.
	f := func(x []float64) float64 {
		if x[0] > 1.5 {
			return 10
		}
		return -3
	}
	X, y := makeData(500, f, 3, 1)
	m, err := Fit(X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if mse := m.MSE(X, y); mse > 0.5 {
		t.Fatalf("train MSE = %v, want < 0.5", mse)
	}
	Xt, yt := makeData(200, f, 3, 2)
	if mse := m.MSE(Xt, yt); mse > 1.0 {
		t.Fatalf("test MSE = %v, want < 1.0", mse)
	}
}

func TestFitAdditiveFunction(t *testing.T) {
	f := func(x []float64) float64 { return 2*x[0] - 3*x[1] + x[2]*x[2]/5 }
	X, y := makeData(1500, f, 4, 3)
	m, err := Fit(X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var varY float64
	for _, v := range y {
		varY += v * v
	}
	varY /= float64(len(y))
	Xt, yt := makeData(400, f, 4, 4)
	mse := m.MSE(Xt, yt)
	if mse > varY*0.15 {
		t.Fatalf("test MSE %v should explain >85%% of variance %v", mse, varY)
	}
}

func TestFitBeatsConstantBaseline(t *testing.T) {
	f := func(x []float64) float64 { return math.Sin(x[0]) * 4 }
	X, y := makeData(800, f, 2, 5)
	m, err := Fit(X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var baseMSE float64
	for _, v := range y {
		baseMSE += (v - m.Base) * (v - m.Base)
	}
	baseMSE /= float64(len(y))
	if got := m.MSE(X, y); got > baseMSE/4 {
		t.Fatalf("model MSE %v should be far below constant baseline %v", got, baseMSE)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, DefaultParams()); err == nil {
		t.Error("empty data should fail")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, DefaultParams()); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}, DefaultParams()); err == nil {
		t.Error("ragged rows should fail")
	}
	p := DefaultParams()
	p.Rounds = 0
	if _, err := Fit([][]float64{{1}, {2}}, []float64{1, 2}, p); err == nil {
		t.Error("zero rounds should fail")
	}
	p = DefaultParams()
	p.LearningRate = 0
	if _, err := Fit([][]float64{{1}, {2}}, []float64{1, 2}, p); err == nil {
		t.Error("zero learning rate should fail")
	}
}

func TestFitDeterministic(t *testing.T) {
	f := func(x []float64) float64 { return x[0] + x[1] }
	X, y := makeData(300, f, 2, 7)
	m1, _ := Fit(X, y, DefaultParams())
	m2, _ := Fit(X, y, DefaultParams())
	probe := []float64{1.234, -2.5}
	if m1.Predict(probe) != m2.Predict(probe) {
		t.Fatal("training must be deterministic")
	}
}

func TestConstantTarget(t *testing.T) {
	X, _ := makeData(100, func(x []float64) float64 { return 0 }, 2, 8)
	y := make([]float64, 100)
	for i := range y {
		y[i] = 7
	}
	m, err := Fit(X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{0, 0}); math.Abs(got-7) > 1e-9 {
		t.Fatalf("constant target predicted %v, want 7", got)
	}
}

func TestSubsampleStillLearns(t *testing.T) {
	f := func(x []float64) float64 {
		if x[0] > 0 {
			return 5
		}
		return -5
	}
	X, y := makeData(600, f, 2, 9)
	p := DefaultParams()
	p.Subsample = 0.5
	m, err := Fit(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	if mse := m.MSE(X, y); mse > 1 {
		t.Fatalf("subsampled MSE = %v", mse)
	}
}

func TestFeatureImportance(t *testing.T) {
	// Only feature 1 matters; importance must reflect that.
	f := func(x []float64) float64 { return 10 * x[1] }
	X, y := makeData(600, f, 4, 10)
	m, err := Fit(X, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	imp := m.FeatureImportance(4)
	for j, v := range imp {
		if j != 1 && v > imp[1]/2 {
			t.Errorf("feature %d importance %v rivals the true feature's %v", j, v, imp[1])
		}
	}
	if order := m.SortedImportance(4); order[0] != 1 {
		t.Errorf("SortedImportance[0] = %d, want 1", order[0])
	}
}

func TestTreeDepthBounded(t *testing.T) {
	f := func(x []float64) float64 { return x[0] * x[1] }
	X, y := makeData(500, f, 2, 11)
	p := DefaultTreeParams()
	p.MaxDepth = 3
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	tree := fitTree(X, y, idx, p)
	// Depth 3 => at most 2^4 - 1 nodes.
	if len(tree.nodes) > 15 {
		t.Fatalf("tree has %d nodes, exceeds depth bound", len(tree.nodes))
	}
	if len(tree.nodes) < 3 {
		t.Fatalf("tree failed to split at all")
	}
}

func TestMSEEmpty(t *testing.T) {
	m := &Model{}
	if m.MSE(nil, nil) != 0 {
		t.Fatal("empty MSE should be 0")
	}
}
