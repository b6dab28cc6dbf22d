// Package stats provides the descriptive statistics and distribution
// machinery used by the evaluation metric (mean/variance across folds), the
// experiment harness (repeated-seed summaries), and the Proposition 1
// sampling-stability analysis (binomial distributions and their two-group
// convolution).
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
// The paper's score (Eq. 3) uses the spread of fold results, for which the
// population form is the natural choice (the folds are the whole population
// of evaluations performed).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// SampleStdDev returns the sample (n-1) standard deviation, used when
// summarizing repeated experiment runs.
func SampleStdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// MeanStd returns Mean(xs) and SampleStdDev(xs) in one pass of the helpers.
func MeanStd(xs []float64) (mean, std float64) {
	return Mean(xs), SampleStdDev(xs)
}
