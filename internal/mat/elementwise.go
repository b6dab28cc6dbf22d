package mat

import (
	"fmt"
	"math"
)

// Per-parameter kernels of the training loop: the three ways a step
// writes the weights (AdamStep, SGDStep, and AxpyTo for an L-BFGS trial
// point), the L2 fold of the weight gradient, and L-BFGS's fused vector
// passes (AxpyDot, CurvaturePair). Each runs once per parameter per
// minibatch or iteration, and on the small folds a bandit method's low
// budgets train on their cost rivals the matmuls'. Like Mul, they run
// the AVX2 bodies in simd_amd64.s where the CPU has them and the Go
// loops below, which are the reference, everywhere else. The assembly
// evaluates each element with the same operations in the same order as
// the Go loop, all of them IEEE-exact per lane (no FMA), so the two are
// bitwise-equal (TestElementwiseKernelsMatchGo). The Go loops wrap every
// product that meets an addition in float64(·), so a compiler that
// fuses multiply-add (GOAMD64=v3, arm64) rounds as the assembly does.
//
// The step kernels return the sum of squares of the values they wrote,
// sq + p'₀² + p'₁² + …, one rounding per term in index order: the chain
// the L2 penalty of the loss runs over the weights. A caller that steps
// the weight blocks in the penalty's order, threading sq through them,
// gets that penalty's sum without a second pass over the weights. The
// reductions (the sums of squares and AxpyDot's and CurvaturePair's dot
// products) are sequential chains, so their lanes are added to the
// accumulator one at a time, lane 0 first.

// AdamCoeffs are the scalars of one Adam step. OneMinusBeta1 and
// OneMinusBeta2 are passed rather than derived: a caller's constant
// expression 1-β folds exactly (0.1 for β = 0.9), where a float64
// subtraction would round (0.09999999999999998). The field order is the
// layout adamavx reads.
type AdamCoeffs struct {
	Beta1, OneMinusBeta1 float64
	Beta2, OneMinusBeta2 float64
	LR                   float64
	// B1c and B2c are the bias corrections 1-β1ᵗ and 1-β2ᵗ.
	B1c, B2c float64
	Eps      float64
}

// AdamStep applies one Adam update to p in place, moving the moment
// estimates m and v with it, and returns sq plus the sum of squares of
// the updated p. For each i:
//
//	m[i] = β1·m[i] + (1-β1)·g[i]
//	v[i] = β2·v[i] + ((1-β2)·g[i])·g[i]
//	p[i] -= (lr·(m[i]/b1c)) / (√(v[i]/b2c) + ε)
//	sq += p[i]·p[i]
//
// All four slices must have the same length.
func AdamStep(p, m, v, g []float64, c AdamCoeffs, sq float64) float64 {
	n := len(p)
	if len(m) != n || len(v) != n || len(g) != n {
		panic(fmt.Sprintf("mat: adam length mismatch %d/%d/%d/%d", n, len(m), len(v), len(g)))
	}
	if n == 0 {
		return sq
	}
	if simdAvailable {
		return adamavx(&p[0], &m[0], &v[0], &g[0], uintptr(n), &c, sq)
	}
	return adamStepGo(p, m, v, g, &c, sq)
}

// adamStepGo is AdamStep's reference loop.
func adamStepGo(p, m, v, g []float64, c *AdamCoeffs, sq float64) float64 {
	b1, omb1, b2, omb2 := c.Beta1, c.OneMinusBeta1, c.Beta2, c.OneMinusBeta2
	lr, b1c, b2c, eps := c.LR, c.B1c, c.B2c, c.Eps
	m, v, g = m[:len(p)], v[:len(p)], g[:len(p)]
	for i, gi := range g {
		mi := float64(b1*m[i]) + float64(omb1*gi)
		vi := float64(b2*v[i]) + float64(float64(omb2*gi)*gi)
		m[i], v[i] = mi, vi
		pi := p[i] - float64(lr*(mi/b1c))/(math.Sqrt(vi/b2c)+eps)
		p[i] = pi
		sq += float64(pi * pi)
	}
	return sq
}

// SGDStep applies one momentum step to p in place, moving the velocity
// vel with it, and returns sq plus the sum of squares of the updated p.
// For each i:
//
//	vel[i] = μ·vel[i] − lr·g[i]
//	p[i] += vel[i]                 (plain momentum)
//	p[i] += μ·vel[i] − lr·g[i]     (nesterov: the look-ahead form)
//	sq += p[i]·p[i]
//
// All three slices must have the same length.
func SGDStep(p, vel, g []float64, momentum, lr float64, nesterov bool, sq float64) float64 {
	n := len(p)
	if len(vel) != n || len(g) != n {
		panic(fmt.Sprintf("mat: sgd length mismatch %d/%d/%d", n, len(vel), len(g)))
	}
	if n == 0 {
		return sq
	}
	if simdAvailable {
		var nest uintptr
		if nesterov {
			nest = 1
		}
		return sgdavx(&p[0], &vel[0], &g[0], uintptr(n), momentum, lr, nest, sq)
	}
	return sgdStepGo(p, vel, g, momentum, lr, nesterov, sq)
}

// sgdStepGo is SGDStep's reference loop.
func sgdStepGo(p, vel, g []float64, mu, lr float64, nesterov bool, sq float64) float64 {
	vel, g = vel[:len(p)], g[:len(p)]
	for i, gi := range g {
		lg := float64(lr * gi)
		vi := float64(mu*vel[i]) - lg
		vel[i] = vi
		d := vi
		if nesterov {
			d = float64(mu*vi) - lg
		}
		pi := p[i] + d
		p[i] = pi
		sq += float64(pi * pi)
	}
	return sq
}

// AxpyTo writes dst = y + a·x and returns sq plus the sum of squares of
// dst: an L-BFGS trial point, from the accepted point y along the
// direction x. All three slices must have the same length; dst may be y.
func AxpyTo(dst []float64, a float64, x, y []float64, sq float64) float64 {
	n := len(dst)
	if len(x) != n || len(y) != n {
		panic(fmt.Sprintf("mat: axpyto length mismatch %d/%d/%d", n, len(x), len(y)))
	}
	if n == 0 {
		return sq
	}
	if simdAvailable {
		return axpytoavx(&dst[0], &x[0], &y[0], uintptr(n), a, sq)
	}
	return axpyToGo(dst, a, x, y, sq)
}

// axpyToGo is AxpyTo's reference loop.
func axpyToGo(dst []float64, a float64, x, y []float64, sq float64) float64 {
	x, y = x[:len(dst)], y[:len(dst)]
	for i, xv := range x {
		d := y[i] + float64(a*xv)
		dst[i] = d
		sq += float64(d * d)
	}
	return sq
}

// AxpyDot sets y[i] = y[i] + a·x[i] — negated when neg — and returns
// the dot product Σ z[i]·y[i] of z with the updated y, summed from +0 in
// index order as Dot does: an Axpy and the Dot that reads its result,
// in one pass. All three slices must have the same length.
func AxpyDot(a float64, x, y []float64, neg bool, z []float64) float64 {
	n := len(y)
	if len(x) != n || len(z) != n {
		panic(fmt.Sprintf("mat: axpydot length mismatch %d/%d/%d", len(x), n, len(z)))
	}
	if n == 0 {
		return 0
	}
	if simdAvailable {
		var mask uint64
		if neg {
			mask = 1 << 63
		}
		return axpydotavx(&x[0], &y[0], &z[0], uintptr(n), a, mask)
	}
	return axpyDotGo(a, x, y, neg, z)
}

// axpyDotGo is AxpyDot's reference loop.
func axpyDotGo(a float64, x, y []float64, neg bool, z []float64) float64 {
	var s float64
	x, z = x[:len(y)], z[:len(y)]
	for i, xv := range x {
		v := y[i] + float64(a*xv)
		if neg {
			v = -v
		}
		y[i] = v
		s += float64(z[i] * v)
	}
	return s
}

// CurvaturePair writes an L-BFGS curvature pair, s = step·dir and
// y = g − gPrev, and returns the three sums the solver reads off it in
// the same pass: sᵀy, yᵀy and gᵀg, each summed from +0 in index order
// as Dot does. All five slices must have the same length.
func CurvaturePair(s, y []float64, step float64, dir, g, gPrev []float64) (sy, yy, gg float64) {
	n := len(s)
	if len(y) != n || len(dir) != n || len(g) != n || len(gPrev) != n {
		panic(fmt.Sprintf("mat: curvature pair length mismatch %d/%d/%d/%d/%d", n, len(y), len(dir), len(g), len(gPrev)))
	}
	if n == 0 {
		return 0, 0, 0
	}
	if simdAvailable {
		return pairavx(&s[0], &y[0], &dir[0], &g[0], &gPrev[0], uintptr(n), step)
	}
	return curvaturePairGo(s, y, step, dir, g, gPrev)
}

// curvaturePairGo is CurvaturePair's reference loop.
func curvaturePairGo(s, y []float64, step float64, dir, g, gPrev []float64) (sy, yy, gg float64) {
	y, dir, g, gPrev = y[:len(s)], dir[:len(s)], g[:len(s)], gPrev[:len(s)]
	for i, gi := range g {
		si := float64(step * dir[i])
		yi := gi - gPrev[i]
		s[i], y[i] = si, yi
		sy += float64(si * yi)
		yy += float64(yi * yi)
		gg += float64(gi * gi)
	}
	return sy, yy, gg
}

// FoldL2 writes a weight gradient with the L2 penalty's gradient folded
// in: g[i] = gw[i] + (alpha·w[i])/n. All three slices must have the
// same length; g may be gw.
func FoldL2(g, gw, w []float64, alpha, n float64) {
	k := len(g)
	if len(gw) != k || len(w) != k {
		panic(fmt.Sprintf("mat: l2 fold length mismatch %d/%d/%d", k, len(gw), len(w)))
	}
	if k == 0 {
		return
	}
	if simdAvailable {
		foldl2avx(&g[0], &gw[0], &w[0], uintptr(k), alpha, n)
		return
	}
	foldL2Go(g, gw, w, alpha, n)
}

// foldL2Go is FoldL2's reference loop.
func foldL2Go(g, gw, w []float64, alpha, n float64) {
	gw, w = gw[:len(g)], w[:len(g)]
	for i, wv := range w {
		g[i] = gw[i] + alpha*wv/n
	}
}
