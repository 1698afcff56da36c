// Package ml provides the machine-learning components of the reproduction:
// a CART regression tree and a multilayer perceptron trained with
// backpropagation (the Figure 13 baselines, normally sklearn/TensorFlow),
// plus RSPN-backed regression and classification (Section 4.3), which need
// no training beyond the ensemble itself.
package ml

import (
	"fmt"
	"math"
	"sort"
)

// TreeConfig controls CART regression-tree learning.
type TreeConfig struct {
	MaxDepth    int
	MinLeafSize int
	// MaxSplitCandidates caps the candidate thresholds tested per feature
	// (quantile-spaced), bounding fit time on continuous features.
	MaxSplitCandidates int
}

// DefaultTreeConfig mirrors common library defaults.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 12, MinLeafSize: 5, MaxSplitCandidates: 32}
}

// RegressionTree is a fitted CART model predicting a continuous target.
type RegressionTree struct {
	root *treeNode
	cfg  TreeConfig
}

type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	value     float64 // leaf prediction
	leaf      bool
}

// FitTree learns a regression tree on rows x features data. NaN feature
// values are routed to the left child at both fit and predict time.
func FitTree(features [][]float64, target []float64, cfg TreeConfig) (*RegressionTree, error) {
	if len(features) == 0 || len(features) != len(target) {
		return nil, fmt.Errorf("ml: bad training shape %d x, %d y", len(features), len(target))
	}
	if cfg.MaxDepth <= 0 {
		cfg = DefaultTreeConfig()
	}
	idx := make([]int, len(features))
	for i := range idx {
		idx[i] = i
	}
	t := &RegressionTree{cfg: cfg}
	t.root = t.grow(features, target, idx, 0)
	return t, nil
}

func (t *RegressionTree) grow(xs [][]float64, ys []float64, idx []int, depth int) *treeNode {
	mean, variance := meanVar(ys, idx)
	if depth >= t.cfg.MaxDepth || len(idx) < 2*t.cfg.MinLeafSize || variance == 0 {
		return &treeNode{leaf: true, value: mean}
	}
	bestFeat, bestThr, bestGain := -1, 0.0, 0.0
	nFeat := len(xs[0])
	for f := 0; f < nFeat; f++ {
		thr, gain := t.bestSplit(xs, ys, idx, f, variance)
		if gain > bestGain {
			bestFeat, bestThr, bestGain = f, thr, gain
		}
	}
	if bestFeat < 0 {
		return &treeNode{leaf: true, value: mean}
	}
	var left, right []int
	for _, i := range idx {
		v := xs[i][bestFeat]
		if math.IsNaN(v) || v <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.cfg.MinLeafSize || len(right) < t.cfg.MinLeafSize {
		return &treeNode{leaf: true, value: mean}
	}
	return &treeNode{
		feature:   bestFeat,
		threshold: bestThr,
		left:      t.grow(xs, ys, left, depth+1),
		right:     t.grow(xs, ys, right, depth+1),
	}
}

// bestSplit scans quantile-spaced thresholds of one feature and returns the
// threshold with the highest variance reduction.
func (t *RegressionTree) bestSplit(xs [][]float64, ys []float64, idx []int, feat int, parentVar float64) (float64, float64) {
	vals := make([]float64, 0, len(idx))
	for _, i := range idx {
		if v := xs[i][feat]; !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) < 2 {
		return 0, 0
	}
	sort.Float64s(vals)
	cands := t.cfg.MaxSplitCandidates
	if cands <= 0 {
		cands = 32
	}
	seen := map[float64]bool{}
	bestThr, bestGain := 0.0, 0.0
	for c := 1; c <= cands; c++ {
		pos := len(vals) * c / (cands + 1)
		if pos >= len(vals) {
			break
		}
		thr := vals[pos]
		if seen[thr] {
			continue
		}
		seen[thr] = true
		var sumL, sumR, sqL, sqR float64
		var nL, nR int
		for _, i := range idx {
			v := xs[i][feat]
			y := ys[i]
			if math.IsNaN(v) || v <= thr {
				sumL += y
				sqL += y * y
				nL++
			} else {
				sumR += y
				sqR += y * y
				nR++
			}
		}
		if nL == 0 || nR == 0 {
			continue
		}
		varL := sqL/float64(nL) - (sumL/float64(nL))*(sumL/float64(nL))
		varR := sqR/float64(nR) - (sumR/float64(nR))*(sumR/float64(nR))
		n := float64(nL + nR)
		gain := parentVar - (float64(nL)/n*varL + float64(nR)/n*varR)
		if gain > bestGain {
			bestThr, bestGain = thr, gain
		}
	}
	return bestThr, bestGain
}

func meanVar(ys []float64, idx []int) (float64, float64) {
	if len(idx) == 0 {
		return 0, 0
	}
	var sum, sq float64
	for _, i := range idx {
		sum += ys[i]
		sq += ys[i] * ys[i]
	}
	n := float64(len(idx))
	mean := sum / n
	v := sq/n - mean*mean
	if v < 0 {
		v = 0
	}
	return mean, v
}

// Predict returns the tree's estimate for one feature vector.
func (t *RegressionTree) Predict(x []float64) float64 {
	n := t.root
	for !n.leaf {
		v := x[n.feature]
		if math.IsNaN(v) || v <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// RMSE computes the root mean squared error of predictions against truth.
func RMSE(pred, truth []float64) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return math.NaN()
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}
