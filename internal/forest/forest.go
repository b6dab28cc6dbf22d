// Package forest implements a random-forest regressor: bootstrap-sampled
// CART trees with per-split random feature subsets, predicting mean and
// cross-tree variance. It is the surrogate model behind the SMAC3-style
// Bayesian optimizer (the paper compares against SMAC3 in §IV-B, whose
// defining trait is exactly a random-forest surrogate instead of a
// Gaussian process).
package forest

import (
	"fmt"
	"math"
	"sort"

	"enhancedbhpo/internal/rng"
)

// Options configure forest training.
type Options struct {
	// Trees is the ensemble size. 0 selects 24.
	Trees int
	// MaxDepth bounds tree depth. 0 selects 12.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf. 0 selects 2.
	MinLeaf int
	// FeatureFraction is the share of features considered per split.
	// 0 selects 1/3 (a common regression default).
	FeatureFraction float64
	// Seed drives bootstrapping and feature subsetting.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Trees <= 0 {
		o.Trees = 24
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 12
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 2
	}
	if o.FeatureFraction <= 0 || o.FeatureFraction > 1 {
		o.FeatureFraction = 1.0 / 3
	}
	return o
}

// Forest is a trained ensemble.
type Forest struct {
	trees    []*node
	features int
}

// node is one CART tree node; leaves have value set and children nil.
type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	value     float64
	leaf      bool
}

// Train fits a forest on rows x (each of equal length) and targets y.
func Train(x [][]float64, y []float64, opts Options) (*Forest, error) {
	opts = opts.withDefaults()
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("forest: %d rows vs %d targets", n, len(y))
	}
	features := len(x[0])
	if features == 0 {
		return nil, fmt.Errorf("forest: zero-width rows")
	}
	for i, row := range x {
		if len(row) != features {
			return nil, fmt.Errorf("forest: row %d has %d features, want %d", i, len(row), features)
		}
	}
	root := rng.New(opts.Seed ^ 0xf0537)
	f := &Forest{features: features}
	mtry := int(math.Ceil(opts.FeatureFraction * float64(features)))
	if mtry < 1 {
		mtry = 1
	}
	for t := 0; t < opts.Trees; t++ {
		r := root.Split(uint64(t) + 1)
		// Bootstrap sample.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = r.Intn(n)
		}
		f.trees = append(f.trees, buildTree(x, y, idx, opts, mtry, 0, r))
	}
	return f, nil
}

// buildTree grows one CART regression tree on the index subset.
func buildTree(x [][]float64, y []float64, idx []int, opts Options, mtry, depth int, r *rng.RNG) *node {
	mean := meanOf(y, idx)
	if depth >= opts.MaxDepth || len(idx) < 2*opts.MinLeaf || pureTargets(y, idx) {
		return &node{leaf: true, value: mean}
	}
	bestFeature, bestThreshold, bestGain := -1, 0.0, 0.0
	parentSSE := sseOf(y, idx, mean)
	features := r.Sample(len(x[0]), mtry)
	for _, fi := range features {
		threshold, gain := bestSplit(x, y, idx, fi, opts.MinLeaf, parentSSE)
		if gain > bestGain {
			bestFeature, bestThreshold, bestGain = fi, threshold, gain
		}
	}
	if bestFeature < 0 {
		return &node{leaf: true, value: mean}
	}
	var left, right []int
	for _, i := range idx {
		if x[i][bestFeature] <= bestThreshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < opts.MinLeaf || len(right) < opts.MinLeaf {
		return &node{leaf: true, value: mean}
	}
	return &node{
		feature:   bestFeature,
		threshold: bestThreshold,
		left:      buildTree(x, y, left, opts, mtry, depth+1, r),
		right:     buildTree(x, y, right, opts, mtry, depth+1, r),
	}
}

// bestSplit finds the threshold on feature fi with the largest SSE
// reduction, respecting the leaf-size floor.
func bestSplit(x [][]float64, y []float64, idx []int, fi, minLeaf int, parentSSE float64) (threshold, gain float64) {
	vals := make([]int, len(idx))
	copy(vals, idx)
	sort.Slice(vals, func(a, b int) bool { return x[vals[a]][fi] < x[vals[b]][fi] })
	n := len(vals)
	// Prefix sums for O(n) split evaluation after the sort.
	var sumL, sqL float64
	var sumR, sqR float64
	for _, i := range vals {
		sumR += y[i]
		sqR += y[i] * y[i]
	}
	best := -1.0
	var bestT float64
	for pos := 0; pos < n-1; pos++ {
		i := vals[pos]
		sumL += y[i]
		sqL += y[i] * y[i]
		sumR -= y[i]
		sqR -= y[i] * y[i]
		nl, nr := pos+1, n-pos-1
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		// Skip ties: cannot split between equal feature values.
		if x[vals[pos]][fi] == x[vals[pos+1]][fi] {
			continue
		}
		sseL := sqL - sumL*sumL/float64(nl)
		sseR := sqR - sumR*sumR/float64(nr)
		g := parentSSE - sseL - sseR
		if g > best {
			best = g
			bestT = (x[vals[pos]][fi] + x[vals[pos+1]][fi]) / 2
		}
	}
	if best <= 0 {
		return 0, 0
	}
	return bestT, best
}

// Predict returns the ensemble mean and cross-tree variance for one row.
// The variance is SMAC's uncertainty signal for the acquisition function.
func (f *Forest) Predict(row []float64) (mean, variance float64) {
	if len(row) != f.features {
		panic(fmt.Sprintf("forest: row has %d features, model expects %d", len(row), f.features))
	}
	var sum, sq float64
	for _, t := range f.trees {
		v := t.eval(row)
		sum += v
		sq += v * v
	}
	n := float64(len(f.trees))
	mean = sum / n
	variance = sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

func (nd *node) eval(row []float64) float64 {
	for !nd.leaf {
		if row[nd.feature] <= nd.threshold {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	return nd.value
}

func meanOf(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func sseOf(y []float64, idx []int, mean float64) float64 {
	var s float64
	for _, i := range idx {
		d := y[i] - mean
		s += d * d
	}
	return s
}

func pureTargets(y []float64, idx []int) bool {
	first := y[idx[0]]
	for _, i := range idx[1:] {
		if y[i] != first {
			return false
		}
	}
	return true
}
