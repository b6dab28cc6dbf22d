package search

import (
	"slices"
	"testing"
	"testing/quick"

	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
)

func TestTableIIISpaceSizes(t *testing.T) {
	// Paper: 4 HPs -> 6*3*3*3 = 162 configurations; 2 HPs -> 18; 8 HPs -> 8748.
	cases := []struct{ hps, want int }{
		{1, 6}, {2, 18}, {3, 54}, {4, 162}, {8, 8748},
	}
	for _, tc := range cases {
		s, err := TableIIISpace(tc.hps)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Size(); got != tc.want {
			t.Errorf("%d HPs: size %d, want %d", tc.hps, got, tc.want)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%d HPs: %v", tc.hps, err)
		}
	}
	if _, err := TableIIISpace(0); err == nil {
		t.Error("0 HPs accepted")
	}
	if _, err := TableIIISpace(9); err == nil {
		t.Error("9 HPs accepted")
	}
}

func TestEnumerateDistinctAndComplete(t *testing.T) {
	s, _ := TableIIISpace(3)
	all := s.Enumerate()
	if len(all) != s.Size() {
		t.Fatalf("enumerated %d of %d", len(all), s.Size())
	}
	seen := map[string]bool{}
	for _, c := range all {
		if seen[c.ID()] {
			t.Fatalf("duplicate config %s", c.ID())
		}
		seen[c.ID()] = true
	}
}

func TestSampleNWithoutReplacement(t *testing.T) {
	s, _ := TableIIISpace(4)
	r := rng.New(1)
	configs := s.SampleN(r, 50)
	if len(configs) != 50 {
		t.Fatalf("sampled %d", len(configs))
	}
	seen := map[string]bool{}
	for _, c := range configs {
		if seen[c.ID()] {
			t.Fatalf("duplicate config %s", c.ID())
		}
		seen[c.ID()] = true
	}
	// Asking for more than the space yields the whole space.
	small, _ := TableIIISpace(1)
	if got := small.SampleN(r, 100); len(got) != 6 {
		t.Fatalf("oversample returned %d", len(got))
	}
}

func TestConfigAccessors(t *testing.T) {
	s, _ := TableIIISpace(4)
	c := s.NewConfig([]int{5, 2, 1, 0})
	if got := c.Value(DimActivation); got != "relu" {
		t.Fatalf("activation = %v", got)
	}
	if got := c.Value(DimSolver); got != "sgd" {
		t.Fatalf("solver = %v", got)
	}
	if got := c.Value("nope"); got != nil {
		t.Fatalf("unknown dimension = %v", got)
	}
	if c.ID() != "5-2-1-0" {
		t.Fatalf("ID = %q", c.ID())
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
}

func TestNewConfigPanics(t *testing.T) {
	s, _ := TableIIISpace(2)
	assertPanics(t, "wrong dim count", func() { s.NewConfig([]int{1}) })
	assertPanics(t, "index out of range", func() { s.NewConfig([]int{9, 0}) })
}

func TestToNNConfigFull(t *testing.T) {
	s := &Space{Dims: TableIIIDimensions()}
	c := s.NewConfig([]int{1, 0, 2, 2, 1, 2, 0, 1})
	base := nn.DefaultConfig()
	cfg, err := ToNNConfig(c, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.HiddenLayerSizes) != 2 || cfg.HiddenLayerSizes[0] != 30 {
		t.Fatalf("hidden = %v", cfg.HiddenLayerSizes)
	}
	if cfg.Activation != nn.Logistic {
		t.Fatalf("activation = %v", cfg.Activation)
	}
	if cfg.Solver != nn.Adam {
		t.Fatalf("solver = %v", cfg.Solver)
	}
	if cfg.LearningRateInit != 0.01 {
		t.Fatalf("lr = %v", cfg.LearningRateInit)
	}
	if cfg.BatchSize != 64 {
		t.Fatalf("batch = %v", cfg.BatchSize)
	}
	if cfg.LearningRate != nn.Adaptive {
		t.Fatalf("schedule = %v", cfg.LearningRate)
	}
	if cfg.Momentum != 0.7 {
		t.Fatalf("momentum = %v", cfg.Momentum)
	}
	if cfg.EarlyStopping {
		t.Fatal("early stopping should be false")
	}
	// Non-searched fields keep the base values.
	if cfg.MaxIter != base.MaxIter || cfg.Alpha != base.Alpha {
		t.Fatal("base fields overwritten")
	}
}

func TestToNNConfigPartialSpaceKeepsBase(t *testing.T) {
	s, _ := TableIIISpace(2)
	c := s.NewConfig([]int{4, 1})
	base := nn.DefaultConfig()
	base.Solver = nn.SGD
	cfg, err := ToNNConfig(c, base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Solver != nn.SGD {
		t.Fatal("unsearched solver changed")
	}
	if cfg.HiddenLayerSizes[0] != 50 || cfg.Activation != nn.Tanh {
		t.Fatal("searched dims not applied")
	}
}

func TestToNNConfigUnknownDimension(t *testing.T) {
	s := &Space{Dims: []Dimension{{Name: "mystery", Values: []any{1}}}}
	c := s.NewConfig([]int{0})
	if _, err := ToNNConfig(c, nn.DefaultConfig()); err == nil {
		t.Error("unknown dimension accepted")
	}
}

func TestToNNConfigDoesNotAliasShapes(t *testing.T) {
	s, _ := TableIIISpace(1)
	c := s.NewConfig([]int{1}) // {30, 30}
	cfg, err := ToNNConfig(c, nn.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.HiddenLayerSizes[0] = 999
	cfg2, err := ToNNConfig(c, nn.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.HiddenLayerSizes[0] == 999 {
		t.Fatal("hidden layer shape aliased between configs")
	}
}

func TestModelSizeSpace(t *testing.T) {
	s, err := ModelSizeSpace([]int{10, 20}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 2 widths * 3 depths shapes * 3 activations.
	if got := s.Size(); got != 18 {
		t.Fatalf("size = %d", got)
	}
	if _, err := ModelSizeSpace(nil, 2); err == nil {
		t.Error("empty widths accepted")
	}
	if _, err := ModelSizeSpace([]int{10}, 0); err == nil {
		t.Error("zero depth accepted")
	}
}

func TestSpaceValidate(t *testing.T) {
	bad := &Space{}
	if err := bad.Validate(); err == nil {
		t.Error("empty space accepted")
	}
	dup := &Space{Dims: []Dimension{
		{Name: "a", Values: []any{1}},
		{Name: "a", Values: []any{2}},
	}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate dimension accepted")
	}
	noVals := &Space{Dims: []Dimension{{Name: "a"}}}
	if err := noVals.Validate(); err == nil {
		t.Error("valueless dimension accepted")
	}
}

func TestSampleUniformProperty(t *testing.T) {
	s, _ := TableIIISpace(2)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := s.Sample(r)
		for d := range s.Dims {
			if c.Index(d) < 0 || c.Index(d) >= len(s.Dims[d].Values) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// enumerateByCounter is Enumerate as a mixed-radix counter whose last
// dimension turns fastest: the reference order positions are decoded in.
func enumerateByCounter(s *Space) []Config {
	var out []Config
	idx := make([]int, len(s.Dims))
	for {
		out = append(out, s.NewConfig(idx))
		d := len(idx) - 1
		for ; d >= 0; d-- {
			if idx[d]++; idx[d] < len(s.Dims[d].Values) {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return out
		}
	}
}

// sampleNByEnumerate is SampleN's rule for a space of at most 2^16
// configurations written the long way: enumerate the whole space, then
// pick the drawn positions.
func sampleNByEnumerate(s *Space, r *rng.RNG, n int) []Config {
	all := enumerateByCounter(s)
	if n >= len(all) {
		return all
	}
	var out []Config
	for _, p := range r.Sample(len(all), n) {
		out = append(out, all[p])
	}
	return out
}

func configIDs(cs []Config) []string {
	ids := make([]string, len(cs))
	for i, c := range cs {
		ids[i] = c.ID()
	}
	return ids
}

// TestSampleNDecodesEnumerateOrder: drawing positions and decoding only
// those gives the configurations enumerating the space and picking the
// same positions gives, in the same order, for every Table III prefix and
// the model-size space, at one, half and all but one of the space, and
// Enumerate is the counter's order.
func TestSampleNDecodesEnumerateOrder(t *testing.T) {
	var spaces []*Space
	for hps := 1; hps <= 8; hps++ {
		s, err := TableIIISpace(hps)
		if err != nil {
			t.Fatal(err)
		}
		spaces = append(spaces, s)
	}
	ms, err := ModelSizeSpace([]int{10, 20, 30}, 3)
	if err != nil {
		t.Fatal(err)
	}
	spaces = append(spaces, ms)
	for _, s := range spaces {
		size := s.Size()
		if got, want := configIDs(s.Enumerate()), configIDs(enumerateByCounter(s)); !slices.Equal(got, want) {
			t.Fatalf("%d dims: Enumerate is not the counter's order", len(s.Dims))
		}
		for _, n := range []int{1, size / 2, size - 1, size} {
			for seed := uint64(1); seed <= 4; seed++ {
				got := configIDs(s.SampleN(rng.New(seed), n))
				want := configIDs(sampleNByEnumerate(s, rng.New(seed), n))
				if !slices.Equal(got, want) {
					t.Fatalf("%d dims, n=%d, seed %d: SampleN = %v, enumerate-then-pick = %v", len(s.Dims), n, seed, got, want)
				}
			}
		}
	}
}
