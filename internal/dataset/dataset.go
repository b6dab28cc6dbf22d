// Package dataset defines the in-memory dataset representation used across
// the repository and synthetic generators that stand in for the paper's 12
// public datasets (LibSVM/UCI/Kaggle are unavailable offline; see DESIGN.md
// for the substitution rationale).
//
// A Dataset is either a classification problem (integer labels in
// [0, NumClasses)) or a regression problem (float64 targets). The budget
// unit of the paper's bandit methods is the instance, so the package
// provides the row-subset, split and stratification operations those
// methods need.
package dataset

import (
	"fmt"
	"sort"

	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

// Kind distinguishes the two supervised task types in the paper.
type Kind int

const (
	// Classification labels instances with integer classes.
	Classification Kind = iota
	// Regression targets instances with real values.
	Regression
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Classification:
		return "classification"
	case Regression:
		return "regression"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Dataset holds features and targets for one supervised problem.
type Dataset struct {
	// Name identifies the dataset (e.g. "gisette-sim").
	Name string
	// Kind is Classification or Regression.
	Kind Kind
	// X holds one instance per row.
	X *mat.Dense
	// Class holds integer labels for classification datasets; nil otherwise.
	Class []int
	// Target holds real targets for regression datasets; nil otherwise.
	Target []float64
	// NumClasses is the number of classes for classification datasets.
	NumClasses int
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return d.X.Rows() }

// Features returns the feature dimensionality.
func (d *Dataset) Features() int { return d.X.Cols() }

// Validate checks internal consistency and returns a descriptive error on
// the first violation found.
func (d *Dataset) Validate() error {
	n := d.X.Rows()
	switch d.Kind {
	case Classification:
		if len(d.Class) != n {
			return fmt.Errorf("dataset %s: %d rows but %d class labels", d.Name, n, len(d.Class))
		}
		if d.NumClasses < 2 {
			return fmt.Errorf("dataset %s: classification with %d classes", d.Name, d.NumClasses)
		}
		for i, c := range d.Class {
			if c < 0 || c >= d.NumClasses {
				return fmt.Errorf("dataset %s: label %d at row %d out of [0,%d)", d.Name, c, i, d.NumClasses)
			}
		}
	case Regression:
		if len(d.Target) != n {
			return fmt.Errorf("dataset %s: %d rows but %d targets", d.Name, n, len(d.Target))
		}
	default:
		return fmt.Errorf("dataset %s: unknown kind %d", d.Name, int(d.Kind))
	}
	return nil
}

// Select returns a new dataset containing the rows at the given indices, in
// order. Indices may repeat. It panics on an out-of-range index.
func (d *Dataset) Select(indices []int) *Dataset { return d.SelectIn(nil, indices) }

// SelectIn is Select with the row copies and labels taken from a, so the
// result is valid only until a.Reset(). A nil arena is the heap.
func (d *Dataset) SelectIn(a *mat.Arena, indices []int) *Dataset {
	if len(indices) == 0 {
		panic("dataset: Select with no indices")
	}
	x := a.Dense(len(indices), d.Features())
	out := &Dataset{Name: d.Name, Kind: d.Kind, X: x, NumClasses: d.NumClasses}
	for row, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			panic(fmt.Sprintf("dataset: Select index %d out of range %d", idx, d.Len()))
		}
		copy(x.Row(row), d.X.Row(idx))
	}
	if d.Kind == Classification {
		out.Class = a.Ints(len(indices))
		for row, idx := range indices {
			out.Class[row] = d.Class[idx]
		}
	} else {
		out.Target = a.Floats(len(indices))
		for row, idx := range indices {
			out.Target[row] = d.Target[idx]
		}
	}
	return out
}

// ClassCounts returns the number of instances per class.
// It panics for regression datasets.
func (d *Dataset) ClassCounts() []int {
	if d.Kind != Classification {
		panic("dataset: ClassCounts on regression dataset")
	}
	counts := make([]int, d.NumClasses)
	for _, c := range d.Class {
		counts[c]++
	}
	return counts
}

// ClassIndices returns, per class, the row indices holding that class.
func (d *Dataset) ClassIndices() [][]int {
	if d.Kind != Classification {
		panic("dataset: ClassIndices on regression dataset")
	}
	out := make([][]int, d.NumClasses)
	for i, c := range d.Class {
		out[c] = append(out[c], i)
	}
	return out
}

// TrainTestSplit splits d into train and test parts using the paper's 80/20
// rule, shuffling with r. Classification splits are stratified so that both
// parts preserve class proportions.
func (d *Dataset) TrainTestSplit(r *rng.RNG, testFraction float64) (train, test *Dataset) {
	if testFraction <= 0 || testFraction >= 1 {
		panic(fmt.Sprintf("dataset: testFraction %v out of (0,1)", testFraction))
	}
	var trainIdx, testIdx []int
	if d.Kind == Classification {
		for _, members := range d.ClassIndices() {
			members = append([]int(nil), members...)
			shuffleInts(r, members)
			cut := int(float64(len(members)) * testFraction)
			if cut == 0 && len(members) > 1 {
				cut = 1
			}
			testIdx = append(testIdx, members[:cut]...)
			trainIdx = append(trainIdx, members[cut:]...)
		}
	} else {
		perm := r.Perm(d.Len())
		cut := int(float64(d.Len()) * testFraction)
		testIdx = perm[:cut]
		trainIdx = perm[cut:]
	}
	shuffleInts(r, trainIdx)
	shuffleInts(r, testIdx)
	return d.Select(trainIdx), d.Select(testIdx)
}

// StratifiedSample returns k row indices sampled so that class proportions
// are preserved as closely as integer rounding allows. For regression
// datasets it falls back to uniform sampling. k must be in [1, Len()].
func (d *Dataset) StratifiedSample(r *rng.RNG, k int) []int {
	n := d.Len()
	if k <= 0 || k > n {
		panic(fmt.Sprintf("dataset: StratifiedSample k=%d out of [1,%d]", k, n))
	}
	if d.Kind != Classification {
		return r.Sample(n, k)
	}
	return StratifiedIndices(r, d.Class, d.NumClasses, k)
}

// StratifiedIndices samples k indices from labels preserving class
// proportions. Exported for reuse by the cv package, which stratifies over
// group labels as well as class labels.
func StratifiedIndices(r *rng.RNG, labels []int, numClasses, k int) []int {
	n := len(labels)
	if k <= 0 || k > n {
		panic(fmt.Sprintf("dataset: StratifiedIndices k=%d out of [1,%d]", k, n))
	}
	// Members per class, carved out of one exactly-sized backing array.
	counts := make([]int, numClasses)
	for _, c := range labels {
		counts[c]++
	}
	byClass := make([][]int, numClasses)
	backing := make([]int, n)
	for c, cnt := range counts {
		byClass[c], backing = backing[:0:cnt], backing[cnt:]
	}
	for i, c := range labels {
		byClass[c] = append(byClass[c], i)
	}
	// Largest-remainder allocation of k across classes.
	type alloc struct {
		class int
		base  int
		rem   float64
	}
	allocs := make([]alloc, 0, numClasses)
	total := 0
	for c, members := range byClass {
		if len(members) == 0 {
			continue
		}
		exact := float64(k) * float64(len(members)) / float64(n)
		base := int(exact)
		if base > len(members) {
			base = len(members)
		}
		allocs = append(allocs, alloc{class: c, base: base, rem: exact - float64(base)})
		total += base
	}
	sort.SliceStable(allocs, func(i, j int) bool { return allocs[i].rem > allocs[j].rem })
	for i := 0; total < k && i < len(allocs); i++ {
		c := allocs[i].class
		if allocs[i].base < len(byClass[c]) {
			allocs[i].base++
			total++
		}
	}
	// If rounding still left a deficit (tiny classes), top up round-robin.
	for i := 0; total < k; i = (i + 1) % len(allocs) {
		c := allocs[i].class
		if allocs[i].base < len(byClass[c]) {
			allocs[i].base++
			total++
		}
	}
	out := make([]int, 0, k)
	for _, a := range allocs {
		members := byClass[a.class]
		picked := r.Sample(len(members), a.base)
		for _, p := range picked {
			out = append(out, members[p])
		}
	}
	shuffleInts(r, out)
	return out
}

func shuffleInts(r *rng.RNG, s []int) { r.Shuffle(s) }
