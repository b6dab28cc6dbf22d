// Package search defines the hyperparameter configuration space the paper
// optimizes over (Table III) and generic space utilities: enumeration,
// random sampling, and conversion of abstract configurations into concrete
// nn.Config values.
//
// All Table III hyperparameters are categorical, so the space is a product
// of named dimensions with finite value lists; a configuration is a choice
// index per dimension.
package search

import (
	"fmt"
	"strconv"
	"strings"

	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
)

// Dimension is one categorical hyperparameter.
type Dimension struct {
	// Name identifies the hyperparameter (Table III row name, snake_case).
	Name string
	// Values lists the candidate values. Supported dynamic types are
	// string, int, float64, bool and []int (hidden layer shapes).
	Values []any
}

// Space is a product of dimensions.
type Space struct {
	Dims []Dimension
}

// Size returns the number of configurations in the space.
func (s *Space) Size() int {
	if len(s.Dims) == 0 {
		return 0
	}
	n := 1
	for _, d := range s.Dims {
		n *= len(d.Values)
	}
	return n
}

// Validate reports the first structural problem with the space.
func (s *Space) Validate() error {
	if len(s.Dims) == 0 {
		return fmt.Errorf("search: empty space")
	}
	seen := map[string]bool{}
	for _, d := range s.Dims {
		if d.Name == "" {
			return fmt.Errorf("search: unnamed dimension")
		}
		if seen[d.Name] {
			return fmt.Errorf("search: duplicate dimension %q", d.Name)
		}
		seen[d.Name] = true
		if len(d.Values) == 0 {
			return fmt.Errorf("search: dimension %q has no values", d.Name)
		}
	}
	return nil
}

// Config is one point of a Space: a value-index per dimension.
type Config struct {
	space *Space
	idx   []int
}

// NewConfig builds a configuration from explicit choice indices.
// It panics on a dimension-count or index-range mismatch.
func (s *Space) NewConfig(idx []int) Config {
	if len(idx) != len(s.Dims) {
		panic(fmt.Sprintf("search: %d indices for %d dimensions", len(idx), len(s.Dims)))
	}
	for d, i := range idx {
		if i < 0 || i >= len(s.Dims[d].Values) {
			panic(fmt.Sprintf("search: index %d out of range for %q", i, s.Dims[d].Name))
		}
	}
	return Config{space: s, idx: append([]int(nil), idx...)}
}

// Space returns the space the configuration belongs to.
func (c Config) Space() *Space { return c.space }

// Index returns the choice index of dimension d.
func (c Config) Index(d int) int { return c.idx[d] }

// Value returns the chosen value of the named dimension, or nil if the
// space has no such dimension.
func (c Config) Value(name string) any {
	for d, dim := range c.space.Dims {
		if dim.Name == name {
			return dim.Values[c.idx[d]]
		}
	}
	return nil
}

// ID returns a stable identifier like "2-0-1-1", usable as a map key.
func (c Config) ID() string {
	buf := make([]byte, 0, 3*len(c.idx))
	for i, v := range c.idx {
		if i > 0 {
			buf = append(buf, '-')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}

// String renders the configuration with names and values.
func (c Config) String() string {
	parts := make([]string, len(c.idx))
	for d, dim := range c.space.Dims {
		parts[d] = fmt.Sprintf("%s=%v", dim.Name, dim.Values[c.idx[d]])
	}
	return strings.Join(parts, " ")
}

// Enumerate returns every configuration of the space in lexicographic
// index order.
func (s *Space) Enumerate() []Config {
	total := s.Size()
	out := make([]Config, 0, total)
	idx := make([]int, len(s.Dims))
	for {
		out = append(out, s.NewConfig(idx))
		// Increment mixed-radix counter.
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(s.Dims[d].Values) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			break
		}
	}
	return out
}

// Sample returns one uniformly random configuration.
func (s *Space) Sample(r *rng.RNG) Config {
	idx := make([]int, len(s.Dims))
	for d := range idx {
		idx[d] = r.Intn(len(s.Dims[d].Values))
	}
	return s.NewConfig(idx)
}

// SampleN returns n configurations sampled without replacement when the
// space is small enough, falling back to with-replacement sampling for
// huge spaces.
func (s *Space) SampleN(r *rng.RNG, n int) []Config {
	size := s.Size()
	if n >= size {
		return s.Enumerate()
	}
	if size <= 1<<16 {
		all := s.Enumerate()
		picked := r.Sample(size, n)
		out := make([]Config, n)
		for i, p := range picked {
			out[i] = all[p]
		}
		return out
	}
	seen := map[string]bool{}
	out := make([]Config, 0, n)
	for len(out) < n {
		c := s.Sample(r)
		if !seen[c.ID()] {
			seen[c.ID()] = true
			out = append(out, c)
		}
	}
	return out
}

// Table III dimension names.
const (
	DimHiddenLayerSizes = "hidden_layer_sizes"
	DimActivation       = "activation"
	DimSolver           = "solver"
	DimLearningRateInit = "learning_rate_init"
	DimBatchSize        = "batch_size"
	DimLearningRate     = "learning_rate"
	DimMomentum         = "momentum"
	DimEarlyStopping    = "early_stopping"
)

// TableIIIDimensions returns the paper's full 8-dimension search space in
// Table III order: 6·3·3·3·3·3·3·2 = 8748 configurations.
func TableIIIDimensions() []Dimension {
	return []Dimension{
		{Name: DimHiddenLayerSizes, Values: []any{
			[]int{30}, []int{30, 30}, []int{40}, []int{40, 40}, []int{50}, []int{50, 50},
		}},
		{Name: DimActivation, Values: []any{"logistic", "tanh", "relu"}},
		{Name: DimSolver, Values: []any{"lbfgs", "sgd", "adam"}},
		{Name: DimLearningRateInit, Values: []any{0.1, 0.05, 0.01}},
		{Name: DimBatchSize, Values: []any{32, 64, 128}},
		{Name: DimLearningRate, Values: []any{"constant", "invscaling", "adaptive"}},
		{Name: DimMomentum, Values: []any{0.7, 0.8, 0.9}},
		{Name: DimEarlyStopping, Values: []any{true, false}},
	}
}

// TableIIISpace returns the space over the first numHPs Table III
// hyperparameters (the paper's Figure 4 grows the space in this order).
// numHPs must be in [1, 8]. The §IV-B HPO experiments use numHPs = 4
// (162 configurations); the §IV-C CV experiments use numHPs = 2
// (18 configurations).
func TableIIISpace(numHPs int) (*Space, error) {
	dims := TableIIIDimensions()
	if numHPs < 1 || numHPs > len(dims) {
		return nil, fmt.Errorf("search: numHPs %d out of [1,%d]", numHPs, len(dims))
	}
	return &Space{Dims: dims[:numHPs]}, nil
}

// ModelSizeSpace returns the Figure 4 model-complexity space: hidden layer
// shapes of every width in widths at every depth in [1, maxDepth], crossed
// with the 3 activations.
func ModelSizeSpace(widths []int, maxDepth int) (*Space, error) {
	if len(widths) == 0 || maxDepth < 1 {
		return nil, fmt.Errorf("search: empty model-size space")
	}
	var shapes []any
	for depth := 1; depth <= maxDepth; depth++ {
		for _, w := range widths {
			shape := make([]int, depth)
			for i := range shape {
				shape[i] = w
			}
			shapes = append(shapes, shape)
		}
	}
	return &Space{Dims: []Dimension{
		{Name: DimHiddenLayerSizes, Values: shapes},
		{Name: DimActivation, Values: []any{"logistic", "tanh", "relu"}},
	}}, nil
}

// ToNNConfig materializes a configuration onto the base nn.Config:
// dimensions present in the space override the base; everything else keeps
// the base value.
func ToNNConfig(c Config, base nn.Config) (nn.Config, error) {
	out := base
	for d, dim := range c.space.Dims {
		v := dim.Values[c.idx[d]]
		switch dim.Name {
		case DimHiddenLayerSizes:
			shape, ok := v.([]int)
			if !ok {
				return out, fmt.Errorf("search: %s value %v is not []int", dim.Name, v)
			}
			out.HiddenLayerSizes = append([]int(nil), shape...)
		case DimActivation:
			act, err := nn.ParseActivation(v.(string))
			if err != nil {
				return out, err
			}
			out.Activation = act
		case DimSolver:
			sol, err := nn.ParseSolver(v.(string))
			if err != nil {
				return out, err
			}
			out.Solver = sol
		case DimLearningRateInit:
			f, ok := v.(float64)
			if !ok {
				return out, fmt.Errorf("search: %s value %v is not float64", dim.Name, v)
			}
			out.LearningRateInit = f
		case DimBatchSize:
			b, ok := v.(int)
			if !ok {
				return out, fmt.Errorf("search: %s value %v is not int", dim.Name, v)
			}
			out.BatchSize = b
		case DimLearningRate:
			sch, err := nn.ParseSchedule(v.(string))
			if err != nil {
				return out, err
			}
			out.LearningRate = sch
		case DimMomentum:
			f, ok := v.(float64)
			if !ok {
				return out, fmt.Errorf("search: %s value %v is not float64", dim.Name, v)
			}
			out.Momentum = f
		case DimEarlyStopping:
			b, ok := v.(bool)
			if !ok {
				return out, fmt.Errorf("search: %s value %v is not bool", dim.Name, v)
			}
			out.EarlyStopping = b
		default:
			return out, fmt.Errorf("search: unknown dimension %q", dim.Name)
		}
	}
	return out, nil
}
