package dataset

import (
	"fmt"

	"enhancedbhpo/internal/rng"
)

// Noise-injection utilities for robustness experiments: the paper's central
// claim is evaluation *stability*, so the harness stresses the methods with
// corrupted labels and checks that the enhanced components degrade more
// gracefully than the vanilla ones.

// CorruptLabels returns a copy of d in which each classification label is
// replaced, with probability rate, by a uniformly random *different* class.
// It panics on regression datasets or a rate outside [0, 1].
func (d *Dataset) CorruptLabels(r *rng.RNG, rate float64) *Dataset {
	if d.Kind != Classification {
		panic("dataset: CorruptLabels on regression dataset")
	}
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("dataset: corruption rate %v out of [0,1]", rate))
	}
	out := d.Select(identity(d.Len()))
	if rate == 0 || d.NumClasses < 2 {
		return out
	}
	for i := range out.Class {
		if r.Float64() < rate {
			// Draw a different class uniformly.
			c := r.Intn(d.NumClasses - 1)
			if c >= out.Class[i] {
				c++
			}
			out.Class[i] = c
		}
	}
	return out
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
