package stats

import "math"

// This file implements the distribution machinery behind Proposition 1
// (sampling stability). Random subset sampling from a balanced two-class
// dataset is Binomial(n, p); the paper's group-based sampling draws n/2
// instances from each of two groups with positive-class rates p−ε and p+ε,
// whose sum is the convolution of the two half-size binomials. Comparing the
// mass the two distributions put on the "representative" outcome x = n·p
// (and nearby outcomes) quantifies the stability gain.

// BinomialPMF returns P[X = k] for X ~ Binomial(n, p).
func BinomialPMF(k, n int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	logPMF := logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(logPMF)
}

// logChoose returns log(C(n, k)) using log-gamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// TwoGroupPMF returns the PMF of the Proposition 1 group-sampling
// distribution: X = X1 + X2 with X1 ~ Binomial(n/2, p−ε) and
// X2 ~ Binomial(n/2, p+ε). n must be even; rates are clamped to [0,1].
func TwoGroupPMF(x, n int, p, eps float64) float64 {
	if n%2 != 0 {
		panic("stats: TwoGroupPMF requires even n")
	}
	half := n / 2
	p1 := clamp01(p - eps)
	p2 := clamp01(p + eps)
	var s float64
	lo := x - half
	if lo < 0 {
		lo = 0
	}
	hi := x
	if hi > half {
		hi = half
	}
	for i := lo; i <= hi; i++ {
		s += BinomialPMF(i, half, p1) * BinomialPMF(x-i, half, p2)
	}
	return s
}

// RepresentativeMass returns the probability that a size-n subset has a
// positive-instance count within ±tol of the ideal n·p, under random
// sampling (eps snapped to 0) or group sampling with the given eps.
// Larger mass means more stable (more representative) subsets.
func RepresentativeMass(n int, p, eps float64, tol int) float64 {
	target := int(math.Round(float64(n) * p))
	var s float64
	for x := target - tol; x <= target+tol; x++ {
		if x < 0 || x > n {
			continue
		}
		if eps == 0 {
			s += BinomialPMF(x, n, p)
		} else {
			s += TwoGroupPMF(x, n, p, eps)
		}
	}
	return s
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
