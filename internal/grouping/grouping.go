// Package grouping implements §III-A of the paper: constructing instance
// groups from feature clusters and label categories (Operation 1,
// GenGroups). The groups are built once before optimization starts and are
// then used by every subset-sampling and fold-construction step.
//
// The construction has two stages:
//
//  1. Per cluster, the top-k most frequent label categories claim their
//     instances for that cluster's group (k is derived from the category
//     count so that roughly one category per group is claimed first).
//  2. Remaining instances are assigned category by category to the group of
//     the cluster in which that category has the highest proportion.
package grouping

import (
	"fmt"
	"sort"

	"enhancedbhpo/internal/cluster"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/rng"
)

// Options configure group construction.
type Options struct {
	// V is the number of groups (= feature clusters). The paper recommends
	// 2–5 so that k_gen + k_spe can stay at the usual 5 folds. 0 selects 2.
	V int
	// RGroup is the balanced-clustering ratio (§III-A). 0 selects the
	// paper's 0.8.
	RGroup float64
	// RareClassRatio triggers rare-class merging (§III-A). 0 selects the
	// paper's 10%.
	RareClassRatio float64
	// RegressionBins is the number of magnitude bins for regression labels.
	// 0 selects 4.
	RegressionBins int
	// TopK is the number of top classes claimed per cluster in stage 1.
	// 0 derives it from the category and group counts.
	TopK int
	// KMeans carries inner clustering settings.
	KMeans cluster.KMeansOptions
	// UseElbow, when true, picks V in [2, 5] with the elbow heuristic
	// instead of using the fixed V.
	UseElbow bool
}

func (o Options) withDefaults() Options {
	if o.V <= 0 {
		o.V = 2
	}
	if o.RGroup <= 0 {
		o.RGroup = cluster.DefaultRGroup
	}
	if o.RareClassRatio <= 0 {
		o.RareClassRatio = dataset.DefaultRareClassRatio
	}
	if o.RegressionBins <= 0 {
		o.RegressionBins = 4
	}
	return o
}

// Groups is the outcome of Operation 1: a partition of the instances into v
// groups aligned with both feature and label structure.
type Groups struct {
	// Assign[i] is the group of instance i, in [0, V).
	Assign []int
	// V is the number of groups.
	V int
	// Members[g] lists the instance indices of group g.
	Members [][]int
	// FeatureCluster[i] is the k-means cluster of instance i (c_i^x).
	FeatureCluster []int
	// LabelCategory[i] is the label category of instance i (c_i^y), after
	// rare-class merging / regression binning.
	LabelCategory []int
	// NumCategories is the number of distinct label categories.
	NumCategories int
}

// Build runs the full §III-A pipeline on d: balanced feature clustering,
// label-category extraction, and Operation 1 group generation.
func Build(d *dataset.Dataset, opts Options, r *rng.RNG) (*Groups, error) {
	opts = opts.withDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.Len()
	v := opts.V
	if opts.UseElbow {
		chosen, err := cluster.Elbow(d.X, 2, 5, opts.KMeans, r.Split(7))
		if err != nil {
			return nil, err
		}
		v = chosen
	}
	if v > n {
		return nil, fmt.Errorf("grouping: v=%d exceeds n=%d", v, n)
	}
	res, err := cluster.BalancedKMeans(d.X, cluster.BalancedOptions{
		K:      v,
		RGroup: opts.RGroup,
		KMeans: opts.KMeans,
	}, r.Split(11))
	if err != nil {
		return nil, err
	}
	labels, numCats := dataset.LabelCategories(d, opts.RareClassRatio, opts.RegressionBins)
	assign := GenGroups(res.Assign, v, labels, numCats, opts.TopK)
	g := &Groups{
		Assign:         assign,
		V:              v,
		Members:        membersOf(assign, v),
		FeatureCluster: res.Assign,
		LabelCategory:  labels,
		NumCategories:  numCats,
	}
	return g, nil
}

// GenGroups is Operation 1 from the paper: it merges feature clusters
// (clusterOf, v clusters) with label categories (catOf, numCats categories)
// into v groups and returns the per-instance group assignment.
//
// Stage 1 walks the clusters; in cluster j the topK most frequent categories
// claim their cluster-j instances for group j. Stage 2 assigns each leftover
// instance (category i, cluster j) to the group of the cluster where
// category i is proportionally strongest.
func GenGroups(clusterOf []int, v int, catOf []int, numCats, topK int) []int {
	n := len(clusterOf)
	if len(catOf) != n {
		panic(fmt.Sprintf("grouping: %d clusters vs %d categories", n, len(catOf)))
	}
	if topK <= 0 {
		// Roughly one category claimed per group first; at least 1.
		topK = (numCats + v - 1) / v
		if topK < 1 {
			topK = 1
		}
	}
	// counts[i][j] = #instances with category i in cluster j (Line 2 of
	// Operation 1).
	counts := make([][]int, numCats)
	for i := range counts {
		counts[i] = make([]int, v)
	}
	for idx, j := range clusterOf {
		counts[catOf[idx]][j]++
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	// Stage 1: per cluster, the top-k categories claim their instances.
	claimed := make([][]bool, numCats) // claimed[i][j]: category i claimed in cluster j
	for i := range claimed {
		claimed[i] = make([]bool, v)
	}
	for j := 0; j < v; j++ {
		top := topCategories(counts, j, topK)
		for _, cat := range top {
			claimed[cat][j] = true
		}
	}
	for idx := 0; idx < n; idx++ {
		j, cat := clusterOf[idx], catOf[idx]
		if claimed[cat][j] {
			assign[idx] = j
		}
	}
	// Stage 2: each remaining category goes to the group of its strongest
	// cluster (argmax over the category's cluster proportions).
	strongest := make([]int, numCats)
	for i := 0; i < numCats; i++ {
		best, bestCnt := 0, -1
		for j := 0; j < v; j++ {
			if counts[i][j] > bestCnt {
				best, bestCnt = j, counts[i][j]
			}
		}
		strongest[i] = best
	}
	for idx := 0; idx < n; idx++ {
		if assign[idx] < 0 {
			assign[idx] = strongest[catOf[idx]]
		}
	}
	return assign
}

// topCategories returns the indices of the k categories with the highest
// counts in cluster j (ties broken by category order for determinism).
func topCategories(counts [][]int, j, k int) []int {
	type pair struct{ cat, cnt int }
	pairs := make([]pair, 0, len(counts))
	for cat := range counts {
		if counts[cat][j] > 0 {
			pairs = append(pairs, pair{cat, counts[cat][j]})
		}
	}
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].cnt > pairs[b].cnt })
	if k > len(pairs) {
		k = len(pairs)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = pairs[i].cat
	}
	return out
}

func membersOf(assign []int, v int) [][]int {
	out := make([][]int, v)
	for i, g := range assign {
		out[g] = append(out[g], i)
	}
	return out
}
