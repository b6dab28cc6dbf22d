package bayes

import (
	"testing"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

func smallSpace() *search.Space {
	return &search.Space{Dims: []search.Dimension{
		{Name: "a", Values: []any{0, 1, 2}},
		{Name: "b", Values: []any{0, 1, 2}},
	}}
}

func TestSamplerFallsBackToRandomWithoutData(t *testing.T) {
	s := NewSampler(smallSpace(), Options{})
	r := rng.New(1)
	seen := map[string]bool{}
	for i := 0; i < 60; i++ {
		c := s.Sample(r)
		seen[c.ID()] = true
	}
	if len(seen) < 5 {
		t.Fatalf("random fallback visited only %d configs", len(seen))
	}
}

func TestSamplerConcentratesOnGoodRegion(t *testing.T) {
	space := smallSpace()
	s := NewSampler(space, Options{RandomFraction: 0.01, MinPoints: 5})
	// Feed observations: configs with a=0 score high, everything else low.
	budget := 100
	for i, c := range space.Enumerate() {
		score := 0.1
		if c.Index(0) == 0 {
			score = 0.9
		}
		s.Add(Observation{Config: c, Budget: budget, Score: score + float64(i)*1e-6})
	}
	if n := len(s.byBudget[budget]); n != 9 {
		t.Fatalf("observations = %d", n)
	}
	r := rng.New(2)
	hits := 0
	const draws = 200
	for i := 0; i < draws; i++ {
		if s.Sample(r).Index(0) == 0 {
			hits++
		}
	}
	if frac := float64(hits) / draws; frac < 0.6 {
		t.Fatalf("model proposed good region only %v of draws", frac)
	}
}

func TestSamplerUsesLargestQualifiedBudget(t *testing.T) {
	space := smallSpace()
	s := NewSampler(space, Options{RandomFraction: 0.01, MinPoints: 3})
	// Low budget says a=2 is good; high budget says a=0 is good. The model
	// must trust the high-budget data.
	for _, c := range space.Enumerate() {
		lowScore := 0.1
		if c.Index(0) == 2 {
			lowScore = 0.9
		}
		s.Add(Observation{Config: c, Budget: 10, Score: lowScore})
		highScore := 0.1
		if c.Index(0) == 0 {
			highScore = 0.9
		}
		s.Add(Observation{Config: c, Budget: 100, Score: highScore})
	}
	r := rng.New(3)
	hiHits, loHits := 0, 0
	const draws = 200
	for i := 0; i < draws; i++ {
		c := s.Sample(r)
		switch c.Index(0) {
		case 0:
			hiHits++
		case 2:
			loHits++
		}
	}
	if hiHits <= loHits {
		t.Fatalf("sampler trusted low budget: high=%d low=%d", hiHits, loHits)
	}
}

func TestSplitAlwaysNonEmpty(t *testing.T) {
	space := smallSpace()
	s := NewSampler(space, Options{})
	obs := []Observation{
		{Config: space.Sample(rng.New(1)), Budget: 10, Score: 0.5},
		{Config: space.Sample(rng.New(2)), Budget: 10, Score: 0.7},
	}
	good, bad := s.split(obs)
	if len(good) == 0 || len(bad) == 0 {
		t.Fatalf("split %d/%d", len(good), len(bad))
	}
	if good[0].Score < bad[len(bad)-1].Score {
		t.Fatal("good set has lower score than bad set")
	}
}

func TestKDEDensityPositive(t *testing.T) {
	space := smallSpace()
	s := NewSampler(space, Options{})
	k := s.fitKDE(nil) // only smoothing mass
	for d := range space.Dims {
		var sum float64
		for _, p := range k[d] {
			if p <= 0 {
				t.Fatal("non-positive KDE probability")
			}
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("dimension %d probabilities sum to %v", d, sum)
		}
	}
	c := space.Sample(rng.New(4))
	if s.density(k, c) <= 0 {
		t.Fatal("zero density for valid config")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(4)
	if o.MinPoints != 6 {
		t.Errorf("MinPoints = %d", o.MinPoints)
	}
	if o.GoodFraction != 0.15 || o.Bandwidth != 1 || o.Candidates != 24 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.RandomFraction <= 0.3 || o.RandomFraction >= 0.4 {
		t.Errorf("RandomFraction = %v", o.RandomFraction)
	}
}
