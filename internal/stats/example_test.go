package stats_test

import (
	"fmt"

	"enhancedbhpo/internal/stats"
)

// Proposition 1: with perfectly separated groups (ε = p) the two-group
// sample always reproduces the dataset's class balance, while random
// sampling only sometimes does.
func ExampleRepresentativeMass() {
	n, p := 40, 0.5
	random := stats.RepresentativeMass(n, p, 0, 0)  // ε = 0 → Binomial(n, p)
	grouped := stats.RepresentativeMass(n, p, p, 0) // ε = p → perfect groups
	fmt.Printf("P[exactly balanced]: random %.3f, grouped %.3f\n", random, grouped)
	// Output:
	// P[exactly balanced]: random 0.125, grouped 1.000
}
