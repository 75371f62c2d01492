// Package gbdt implements gradient-boosted regression trees from scratch —
// the stand-in for LightGBM, which the paper trains to predict the optimal
// parallelization strategy (§5.4, Table 7, Fig. 12). Trees are grown greedily
// on variance reduction with histogram-based split finding, and boosted with
// shrinkage on squared-error residuals, the same model family LightGBM
// implements.
package gbdt

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// TreeParams bound the growth of one regression tree.
type TreeParams struct {
	MaxDepth int
	MinLeaf  int // minimum samples per leaf
	MaxBins  int // histogram bins per feature for split finding
	MinGain  float64
}

// DefaultTreeParams mirror typical LightGBM defaults scaled for small
// tabular datasets.
func DefaultTreeParams() TreeParams {
	return TreeParams{MaxDepth: 6, MinLeaf: 4, MaxBins: 64, MinGain: 1e-7}
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64
	left      int32
	right     int32
	value     float64
}

// Tree is a fitted regression tree.
type Tree struct {
	nodes []node
}

// Predict evaluates the tree on one feature vector.
func (t *Tree) Predict(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// fitTree grows a tree on the sample set (indices into X/y).
func fitTree(X [][]float64, y []float64, idx []int, p TreeParams) *Tree {
	t := &Tree{}
	t.grow(X, y, idx, 0, p)
	return t
}

func mean(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// grow appends the subtree for idx and returns its node index.
func (t *Tree) grow(X [][]float64, y []float64, idx []int, depth int, p TreeParams) int32 {
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{feature: -1, value: mean(y, idx)})
	if depth >= p.MaxDepth || len(idx) < 2*p.MinLeaf {
		return self
	}
	feat, thr, gain := bestSplit(X, y, idx, p)
	if feat < 0 || gain < p.MinGain {
		return self
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < p.MinLeaf || len(right) < p.MinLeaf {
		return self
	}
	l := t.grow(X, y, left, depth+1, p)
	r := t.grow(X, y, right, depth+1, p)
	t.nodes[self].feature = feat
	t.nodes[self].threshold = thr
	t.nodes[self].left = l
	t.nodes[self].right = r
	return self
}

// bestSplit finds the (feature, threshold) with maximal variance reduction
// using per-feature histograms.
func bestSplit(X [][]float64, y []float64, idx []int, p TreeParams) (int, float64, float64) {
	if len(idx) == 0 {
		return -1, 0, 0
	}
	numFeatures := len(X[idx[0]])
	var totalSum, totalSq float64
	for _, i := range idx {
		totalSum += y[i]
		totalSq += y[i] * y[i]
	}
	n := float64(len(idx))
	baseImpurity := totalSq - totalSum*totalSum/n

	bestFeat, bestThr, bestGain := -1, 0.0, 0.0
	for f := 0; f < numFeatures; f++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, i := range idx {
			v := X[i][f]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi <= lo {
			continue
		}
		bins := p.MaxBins
		counts := make([]float64, bins)
		sums := make([]float64, bins)
		width := (hi - lo) / float64(bins)
		for _, i := range idx {
			b := int((X[i][f] - lo) / width)
			if b >= bins {
				b = bins - 1
			}
			counts[b]++
			sums[b] += y[i]
		}
		var cn, cs float64
		for b := 0; b < bins-1; b++ {
			cn += counts[b]
			cs += sums[b]
			if cn < float64(p.MinLeaf) || n-cn < float64(p.MinLeaf) {
				continue
			}
			// Variance reduction: sum of squares is constant, so maximise
			// cs^2/cn + (total-cs)^2/(n-cn).
			rhs := totalSum - cs
			gain := cs*cs/cn + rhs*rhs/(n-cn) - totalSum*totalSum/n
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = lo + width*float64(b+1)
			}
		}
	}
	_ = baseImpurity
	return bestFeat, bestThr, bestGain
}

// Params configure the boosted ensemble.
type Params struct {
	Tree         TreeParams
	Rounds       int
	LearningRate float64
	// Subsample in (0,1] rows per round (stochastic gradient boosting);
	// 1 uses all rows.
	Subsample float64
	// Seed drives the deterministic subsampling.
	Seed int64
}

// DefaultParams are sensible defaults for the predictor's dataset sizes.
func DefaultParams() Params {
	return Params{Tree: DefaultTreeParams(), Rounds: 120, LearningRate: 0.08, Subsample: 0.9, Seed: 1}
}

// Model is a fitted boosted ensemble.
type Model struct {
	Base  float64
	Trees []*Tree
	LR    float64
}

// ErrBadTrainingData reports malformed inputs to Fit.
var ErrBadTrainingData = errors.New("gbdt: bad training data")

// Fit trains a squared-error gradient-boosted ensemble.
func Fit(X [][]float64, y []float64, p Params) (*Model, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("%w: %d rows, %d targets", ErrBadTrainingData, len(X), len(y))
	}
	width := len(X[0])
	for i, row := range X {
		if len(row) != width {
			return nil, fmt.Errorf("%w: row %d has %d features, want %d", ErrBadTrainingData, i, len(row), width)
		}
	}
	if p.Rounds <= 0 || p.LearningRate <= 0 {
		return nil, fmt.Errorf("%w: rounds=%d lr=%v", ErrBadTrainingData, p.Rounds, p.LearningRate)
	}
	if p.Subsample <= 0 || p.Subsample > 1 {
		p.Subsample = 1
	}

	m := &Model{LR: p.LearningRate}
	var s float64
	for _, v := range y {
		s += v
	}
	m.Base = s / float64(len(y))

	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = m.Base
	}
	residual := make([]float64, len(y))
	rng := newXorshift(uint64(p.Seed)*2685821657736338717 + 1)
	for round := 0; round < p.Rounds; round++ {
		for i := range y {
			residual[i] = y[i] - pred[i]
		}
		idx := make([]int, 0, len(y))
		for i := range y {
			if p.Subsample >= 1 || rng.float64() < p.Subsample {
				idx = append(idx, i)
			}
		}
		if len(idx) < 2*p.Tree.MinLeaf {
			idx = idx[:0]
			for i := range y {
				idx = append(idx, i)
			}
		}
		tree := fitTree(X, residual, idx, p.Tree)
		m.Trees = append(m.Trees, tree)
		for i, row := range X {
			pred[i] += p.LearningRate * tree.Predict(row)
		}
	}
	return m, nil
}

// Predict evaluates the ensemble on one feature vector.
func (m *Model) Predict(x []float64) float64 {
	out := m.Base
	for _, t := range m.Trees {
		out += m.LR * t.Predict(x)
	}
	return out
}

// MSE computes mean squared error of the model over a dataset.
func (m *Model) MSE(X [][]float64, y []float64) float64 {
	if len(X) == 0 {
		return 0
	}
	var s float64
	for i, row := range X {
		d := m.Predict(row) - y[i]
		s += d * d
	}
	return s / float64(len(X))
}

// xorshift is a tiny deterministic PRNG so Fit does not depend on math/rand
// ordering guarantees.
type xorshift struct{ state uint64 }

func newXorshift(seed uint64) *xorshift {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &xorshift{state: seed}
}

func (x *xorshift) next() uint64 {
	s := x.state
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	x.state = s
	return s
}

func (x *xorshift) float64() float64 {
	return float64(x.next()>>11) / float64(1<<53)
}

// FeatureImportance counts how often each feature is used for splitting,
// weighted by depth (shallower splits matter more). Useful for the
// documentation of what drives schedule choice.
func (m *Model) FeatureImportance(numFeatures int) []float64 {
	imp := make([]float64, numFeatures)
	for _, t := range m.Trees {
		var walk func(i int32, depth int)
		walk = func(i int32, depth int) {
			n := &t.nodes[i]
			if n.feature < 0 {
				return
			}
			if n.feature < numFeatures {
				imp[n.feature] += 1 / float64(depth+1)
			}
			walk(n.left, depth+1)
			walk(n.right, depth+1)
		}
		walk(0, 0)
	}
	return imp
}

// SortedImportance returns feature indices ordered by descending importance.
func (m *Model) SortedImportance(numFeatures int) []int {
	imp := m.FeatureImportance(numFeatures)
	order := make([]int, numFeatures)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return imp[order[a]] > imp[order[b]] })
	return order
}
