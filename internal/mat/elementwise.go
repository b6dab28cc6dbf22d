package mat

import (
	"fmt"
	"math"
)

// Per-parameter kernels of the training loop: the Adam step and the L2
// fold of the weight gradient. Each runs once per parameter per
// minibatch, and on the small folds a bandit method's low budgets train
// on their cost rivals the matmuls'. Like Mul, they run the AVX2 bodies
// in simd_amd64.s where the CPU has them and the Go loops below, which
// are the reference, everywhere else. The assembly evaluates each
// element with the same operations in the same order as the Go loop,
// all of them IEEE-exact per lane (no FMA), so the two are bitwise-equal
// (TestElementwiseKernelsMatchGo).

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
// estimates m and v with it. For each i:
//
//	m[i] = β1·m[i] + (1-β1)·g[i]
//	v[i] = β2·v[i] + ((1-β2)·g[i])·g[i]
//	p[i] -= (lr·(m[i]/b1c)) / (√(v[i]/b2c) + ε)
//
// All four slices must have the same length.
func AdamStep(p, m, v, g []float64, c AdamCoeffs) {
	n := len(p)
	if len(m) != n || len(v) != n || len(g) != n {
		panic(fmt.Sprintf("mat: adam length mismatch %d/%d/%d/%d", n, len(m), len(v), len(g)))
	}
	if n == 0 {
		return
	}
	if simdAvailable {
		adamavx(&p[0], &m[0], &v[0], &g[0], uintptr(n), &c)
		return
	}
	adamStepGo(p, m, v, g, &c)
}

// adamStepGo is AdamStep's reference loop. The float64(·) conversions
// keep a compiler that fuses multiply-add (GOAMD64=v3, arm64) from
// dropping a rounding the assembly performs.
func adamStepGo(p, m, v, g []float64, c *AdamCoeffs) {
	b1, omb1, b2, omb2 := c.Beta1, c.OneMinusBeta1, c.Beta2, c.OneMinusBeta2
	lr, b1c, b2c, eps := c.LR, c.B1c, c.B2c, c.Eps
	m, v, g = m[:len(p)], v[:len(p)], g[:len(p)]
	for i, gi := range g {
		mi := float64(b1*m[i]) + float64(omb1*gi)
		vi := float64(b2*v[i]) + float64(float64(omb2*gi)*gi)
		m[i], v[i] = mi, vi
		p[i] -= float64(lr*(mi/b1c)) / (math.Sqrt(vi/b2c) + eps)
	}
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
