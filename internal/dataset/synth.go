package dataset

import (
	"fmt"
	"math"
	"slices"

	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

// Spec describes a synthetic dataset generator. Each of the paper's 12
// datasets has a Spec that matches its task type, class count, class
// balance and (scaled-down) size and dimensionality. The generator plants
// latent feature clusters that are correlated with, but not identical to,
// the class labels — exactly the structure the paper's grouping method
// (feature clusters × label classes) is designed to exploit.
type Spec struct {
	// Name of the simulated dataset, e.g. "gisette".
	Name string
	// Kind is Classification or Regression.
	Kind Kind
	// Classes is the class count (classification only).
	Classes int
	// Train and Test are the instance counts to generate.
	Train, Test int
	// Features is the total feature dimensionality.
	Features int
	// Informative is the number of features carrying signal; the rest are
	// pure noise (simulating high-dimensional sparse problems like gisette).
	Informative int
	// Clusters is the number of latent feature clusters.
	Clusters int
	// ClassSep scales the class-dependent shift in feature space; larger
	// values make the problem easier.
	ClassSep float64
	// ClusterSep scales the spread between latent cluster centers.
	ClusterSep float64
	// Noise is the within-cluster feature standard deviation.
	Noise float64
	// Priors are class priors; nil means balanced. Must sum to ~1.
	Priors []float64
	// TargetNoise is the regression target noise standard deviation.
	TargetNoise float64
}

// Validate reports the first problem with the spec, if any.
func (s Spec) Validate() error {
	if s.Train <= 0 || s.Test < 0 {
		return fmt.Errorf("spec %s: train=%d test=%d", s.Name, s.Train, s.Test)
	}
	if s.Features <= 0 || s.Informative <= 0 || s.Informative > s.Features {
		return fmt.Errorf("spec %s: features=%d informative=%d", s.Name, s.Features, s.Informative)
	}
	if s.Clusters <= 0 {
		return fmt.Errorf("spec %s: clusters=%d", s.Name, s.Clusters)
	}
	if s.Kind == Classification {
		if s.Classes < 2 {
			return fmt.Errorf("spec %s: classes=%d", s.Name, s.Classes)
		}
		if s.Priors != nil {
			if len(s.Priors) != s.Classes {
				return fmt.Errorf("spec %s: %d priors for %d classes", s.Name, len(s.Priors), s.Classes)
			}
			var sum float64
			for _, p := range s.Priors {
				if p <= 0 {
					return fmt.Errorf("spec %s: non-positive prior", s.Name)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				return fmt.Errorf("spec %s: priors sum to %v", s.Name, sum)
			}
		}
	}
	return nil
}

// Scaled returns a copy of the spec with train/test sizes multiplied by
// factor (minimum 32 train instances). Used by fast tests and benchmarks.
func (s Spec) Scaled(factor float64) Spec {
	out := s
	out.Train = int(float64(s.Train) * factor)
	if out.Train < 32 {
		out.Train = 32
	}
	out.Test = int(float64(s.Test) * factor)
	if out.Test < 16 {
		out.Test = 16
	}
	return out
}

// PaperSpecs returns the generator specs for all 12 datasets of Table II,
// scaled to laptop size (the shapes, class counts and imbalance profiles
// match the table; instance counts are reduced roughly 10–100×, see
// DESIGN.md).
func PaperSpecs() []Spec {
	return []Spec{
		{Name: "australian", Kind: Classification, Classes: 2, Train: 552, Test: 138, Features: 14, Informative: 10, Clusters: 4, ClassSep: 1.2, ClusterSep: 3.0, Noise: 1.0},
		{Name: "splice", Kind: Classification, Classes: 2, Train: 800, Test: 400, Features: 60, Informative: 20, Clusters: 4, ClassSep: 1.0, ClusterSep: 2.5, Noise: 1.0},
		{Name: "gisette", Kind: Classification, Classes: 2, Train: 1200, Test: 300, Features: 100, Informative: 25, Clusters: 5, ClassSep: 1.1, ClusterSep: 2.5, Noise: 1.0},
		{Name: "machine", Kind: Classification, Classes: 2, Train: 1500, Test: 375, Features: 9, Informative: 7, Clusters: 3, ClassSep: 1.6, ClusterSep: 3.0, Noise: 0.9, Priors: []float64{0.92, 0.08}},
		{Name: "nticusdroid", Kind: Classification, Classes: 2, Train: 1800, Test: 450, Features: 86, Informative: 30, Clusters: 5, ClassSep: 1.3, ClusterSep: 2.8, Noise: 1.0},
		{Name: "a9a", Kind: Classification, Classes: 2, Train: 2000, Test: 1000, Features: 123, Informative: 35, Clusters: 5, ClassSep: 0.9, ClusterSep: 2.2, Noise: 1.1, Priors: []float64{0.76, 0.24}},
		{Name: "fraud", Kind: Classification, Classes: 2, Train: 2400, Test: 600, Features: 30, Informative: 15, Clusters: 4, ClassSep: 2.0, ClusterSep: 2.5, Noise: 0.8, Priors: []float64{0.98, 0.02}},
		{Name: "credit2023", Kind: Classification, Classes: 2, Train: 2800, Test: 700, Features: 29, Informative: 18, Clusters: 4, ClassSep: 1.2, ClusterSep: 2.6, Noise: 1.0},
		{Name: "satimage", Kind: Classification, Classes: 6, Train: 1600, Test: 720, Features: 36, Informative: 20, Clusters: 5, ClassSep: 1.4, ClusterSep: 3.2, Noise: 1.0, Priors: []float64{0.24, 0.11, 0.21, 0.10, 0.11, 0.23}},
		{Name: "usps", Kind: Classification, Classes: 10, Train: 1800, Test: 500, Features: 64, Informative: 40, Clusters: 5, ClassSep: 1.6, ClusterSep: 3.0, Noise: 0.9},
		{Name: "molecules", Kind: Regression, Train: 1600, Test: 400, Features: 60, Informative: 20, Clusters: 4, ClusterSep: 2.8, Noise: 1.0, TargetNoise: 0.3},
		{Name: "kc-house", Kind: Regression, Train: 1700, Test: 425, Features: 18, Informative: 12, Clusters: 4, ClusterSep: 3.0, Noise: 1.0, TargetNoise: 0.25},
	}
}

// paperSpecs is PaperSpecs, built once for SpecByName.
var paperSpecs = PaperSpecs()

// SpecByName returns the paper spec with the given name: a copy, Priors
// included, so a caller cannot change the table.
func SpecByName(name string) (Spec, error) {
	for _, s := range paperSpecs {
		if s.Name == name {
			s.Priors = slices.Clone(s.Priors)
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown spec %q", name)
}

// Synthesize generates train and test datasets from the spec with the given
// seed. The same seed always yields the same data.
func Synthesize(spec Spec, seed uint64) (train, test *Dataset, err error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	r := rng.New(seed)
	g := newGenerator(spec, r)
	train = g.generate(spec.Train, r.Split(1))
	test = g.generate(spec.Test, r.Split(2))
	return train, test, nil
}

// generator holds the latent structure shared by the train and test splits.
type generator struct {
	spec Spec
	// centers[k] is the latent cluster center over informative features.
	centers [][]float64
	// classDir[c] is the class-dependent shift direction (classification).
	classDir [][]float64
	// clusterWeights[c][k] is P(cluster k | class c) (classification);
	// for regression, clusterWeights[0] is the global cluster mixture.
	clusterWeights [][]float64
	// regW is the linear target weight vector (regression).
	regW []float64
	// clusterOffset[k] biases the regression target per cluster, coupling
	// cluster identity with label magnitude.
	clusterOffset []float64
}

func newGenerator(spec Spec, r *rng.RNG) *generator {
	g := &generator{spec: spec}
	g.centers = make([][]float64, spec.Clusters)
	for k := range g.centers {
		c := make([]float64, spec.Informative)
		for j := range c {
			c[j] = r.NormScaled(0, spec.ClusterSep)
		}
		g.centers[k] = c
	}
	if spec.Kind == Classification {
		g.classDir = make([][]float64, spec.Classes)
		for c := range g.classDir {
			dir := make([]float64, spec.Informative)
			for j := range dir {
				dir[j] = r.Norm()
			}
			norm := mat.Norm2(dir)
			if norm == 0 {
				dir[0] = 1
				norm = 1
			}
			mat.Scale(spec.ClassSep/norm, dir)
			g.classDir[c] = dir
		}
		// Class-conditional cluster mixtures: each class prefers a couple of
		// clusters but leaks into the others, so feature clusters and label
		// classes are correlated yet distinct.
		g.clusterWeights = make([][]float64, spec.Classes)
		for c := range g.clusterWeights {
			w := make([]float64, spec.Clusters)
			for k := range w {
				w[k] = 0.15 + r.Float64() // floor keeps every cluster reachable
			}
			// Boost two preferred clusters per class.
			w[(c*2)%spec.Clusters] += 1.6
			w[(c*2+1)%spec.Clusters] += 0.8
			g.clusterWeights[c] = w
		}
	} else {
		g.clusterWeights = [][]float64{make([]float64, spec.Clusters)}
		for k := range g.clusterWeights[0] {
			g.clusterWeights[0][k] = 0.5 + r.Float64()
		}
		g.regW = make([]float64, spec.Informative)
		for j := range g.regW {
			g.regW[j] = r.Norm()
		}
		mat.Scale(1/math.Sqrt(float64(spec.Informative)), g.regW)
		g.clusterOffset = make([]float64, spec.Clusters)
		for k := range g.clusterOffset {
			g.clusterOffset[k] = r.NormScaled(0, 1.5)
		}
	}
	return g
}

func (g *generator) generate(n int, r *rng.RNG) *Dataset {
	spec := g.spec
	x := mat.NewDense(n, spec.Features)
	d := &Dataset{Name: spec.Name, Kind: spec.Kind, X: x, NumClasses: spec.Classes}
	if spec.Kind == Classification {
		d.Class = make([]int, n)
	} else {
		d.Target = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		var class, cluster int
		if spec.Kind == Classification {
			class = g.drawClass(r)
			cluster = r.Choice(g.clusterWeights[class])
			d.Class[i] = class
		} else {
			cluster = r.Choice(g.clusterWeights[0])
		}
		row := x.Row(i)
		center := g.centers[cluster]
		for j := 0; j < spec.Informative; j++ {
			row[j] = center[j] + r.NormScaled(0, spec.Noise)
		}
		if spec.Kind == Classification {
			mat.Axpy(1, g.classDir[class], row[:spec.Informative])
		}
		for j := spec.Informative; j < spec.Features; j++ {
			row[j] = r.Norm()
		}
		if spec.Kind == Regression {
			lin := mat.Dot(g.regW, row[:spec.Informative])
			// A mild nonlinearity keeps the MLP hyperparameters relevant.
			nl := 0.6*math.Sin(row[0]) + 0.3*row[1]*row[1]/(1+math.Abs(row[1]))
			d.Target[i] = lin + nl + g.clusterOffset[cluster] + r.NormScaled(0, spec.TargetNoise)
		}
	}
	return d
}

func (g *generator) drawClass(r *rng.RNG) int {
	spec := g.spec
	if spec.Priors == nil {
		return r.Intn(spec.Classes)
	}
	x := r.Float64()
	for c, p := range spec.Priors {
		x -= p
		if x < 0 {
			return c
		}
	}
	return spec.Classes - 1
}

// Standardize rescales each feature column of the given datasets jointly to
// zero mean and unit variance computed on the first dataset (the training
// set), mirroring the usual fit-on-train / apply-to-all preprocessing.
// Constant columns are left centered only.
func Standardize(fit *Dataset, apply ...*Dataset) {
	f := fit.Features()
	n := fit.Len()
	means := make([]float64, f)
	stds := make([]float64, f)
	for i := 0; i < n; i++ {
		row := fit.X.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(n)
	}
	for i := 0; i < n; i++ {
		row := fit.X.Row(i)
		for j, v := range row {
			d := v - means[j]
			stds[j] += d * d
		}
	}
	for j := range stds {
		stds[j] = math.Sqrt(stds[j] / float64(n))
		if stds[j] == 0 {
			stds[j] = 1
		}
	}
	all := append([]*Dataset{fit}, apply...)
	for _, d := range all {
		for i := 0; i < d.Len(); i++ {
			row := d.X.Row(i)
			for j := range row {
				row[j] = (row[j] - means[j]) / stds[j]
			}
		}
	}
}
