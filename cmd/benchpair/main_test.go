package main

import (
	"math"
	"testing"
)

// TestCompare holds the per-metric summary to its rules: wins per pair
// (ties count for neither side), the median shift, and each verdict,
// for a lower-is-better and a higher-is-better metric.
func TestCompare(t *testing.T) {
	ten := func(v ...float64) []float64 { return v }
	base := ten(10, 10.2, 9.8, 10.1, 9.9, 10, 10.3, 9.7, 10, 10)
	for _, c := range []struct {
		name       string
		base, head []float64
		lower      bool
		bound      float64
		wins       int
		shift      float64
		verdict    string
	}{
		{"gain: 10/10 wins, shift past the spread", base,
			ten(9, 9.1, 8.9, 9, 9, 9.2, 9.1, 8.8, 9, 9), true, 0.25, 10, -0.1, "gain"},
		{"nine wins are enough", base,
			ten(9, 9.1, 8.9, 9, 9, 9.2, 9.1, 8.8, 9, 10.5), true, 0.25, 9, -0.1, "gain"},
		{"eight wins are not", base,
			ten(9, 9.1, 8.9, 9, 9, 9.2, 9.1, 8.8, 10.5, 10.5), true, 0.25, 8, -0.095, "within bound"},
		{"ties count for neither side", base,
			ten(9, 9.1, 8.9, 9, 9, 9.2, 9.1, 8.8, 10, 10), true, 0.25, 8, -0.095, "within bound"},
		{"all wins but inside the base spread", base,
			ten(9.95, 10.15, 9.75, 10.05, 9.85, 9.95, 10.25, 9.65, 9.95, 9.95), true, 0.25, 10, -0.005, "within bound"},
		{"regression past the bound", base,
			ten(13, 13, 13, 13, 13, 13, 13, 13, 13, 13), true, 0.25, 0, 0.3, "REGRESSION past the bound"},
		{"a worse median inside the bound", base,
			ten(11, 11, 11, 11, 11, 11, 11, 11, 11, 11), true, 0.25, 0, 0.1, "within bound"},
		{"unresolved: base spread wider than the bound",
			ten(5, 15, 5, 15, 5, 15, 5, 15, 5, 15), ten(10, 10, 10, 10, 10, 10, 10, 10, 10, 10), true, 0.25, 5, 0, "unresolved: base spread exceeds the bound"},
		{"higher is better: a higher median is the gain", base,
			ten(11, 11.1, 10.9, 11, 11, 11.2, 11.1, 10.8, 11, 11), false, 0.25, 10, 0.1, "gain"},
		{"higher is better: a lower median is the regression", base,
			ten(7, 7, 7, 7, 7, 7, 7, 7, 7, 7), false, 0.25, 0, -0.3, "REGRESSION past the bound"},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := compare(c.base, c.head, c.lower, c.bound)
			if got.wins != c.wins {
				t.Errorf("wins %d, want %d", got.wins, c.wins)
			}
			if math.Abs(got.shift-c.shift) > 1e-9 {
				t.Errorf("shift %v, want %v", got.shift, c.shift)
			}
			if got.verdict != c.verdict {
				t.Errorf("verdict %q, want %q", got.verdict, c.verdict)
			}
		})
	}
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{4, 1, 3, 2, 5})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Fatalf("quartiles %v %v %v, want 2 3 4", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Fatalf("quartiles %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
}
