package mat

import (
	"fmt"
	"testing"

	"enhancedbhpo/internal/rng"
)

// The matmul benchmarks time the blocked and the SIMD row kernels side by
// side (simd where the CPU has it) on identical data at the shapes the
// paper's networks form, so the ns/op ratio is the SIMD speedup itself. Each call
// computes every destination row sequentially, as Mul, MulT and TMul do.
// `make bench-smoke` runs them for one iteration so they cannot rot.

// matShapes are the products the solo-paper workload's Table III
// networks form, as (batch × fan-in × fan-out) = (m × k × n) of Mul: a
// satimage (36 features) or a9a (123) input into a 30-, 40- or 50-wide
// hidden layer at the 8-, 32- and 320-row batches, and a 40-wide layer
// into the 6- and 2-class heads. MulT and TMul pose the same three
// numbers as their own (m, k, n), like the parity tests.
var matShapes = []struct {
	name    string
	m, k, n int
}{
	{"8x36x50", 8, 36, 50},
	{"32x36x40", 32, 36, 40},
	{"32x123x30", 32, 123, 30},
	{"320x123x40", 320, 123, 40},
	{"32x40x6", 32, 40, 6},
	{"320x40x2", 320, 40, 2},
}

// benchRowKernels runs one sub-benchmark per kernel family and shape
// for the matmul form op.
func benchRowKernels(b *testing.B, op int) {
	o := kernelOps[op]
	for si, sh := range matShapes {
		a, bb := o.operands(rng.New(uint64(20+si)), sh.m, sh.k, sh.n)
		dst := NewDense(sh.m, sh.n)
		for fi, family := range kernelFamilies() {
			f := o.rows[fi]
			b.Run(sh.name+"/"+family, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					f(dst, a, bb, 0, o.rowsOf(a))
				}
			})
		}
	}
}

// BenchmarkMatMul times dst = a*b (the forward-pass product).
func BenchmarkMatMul(b *testing.B) { benchRowKernels(b, 0) }

// BenchmarkMatMulT times dst = a*bᵀ (in the SIMD family, the pack of bᵀ
// included).
func BenchmarkMatMulT(b *testing.B) { benchRowKernels(b, 1) }

// BenchmarkMatTMul times dst = aᵀ*b (the weight gradient).
func BenchmarkMatTMul(b *testing.B) { benchRowKernels(b, 2) }

// BenchmarkMatActivation times each activation over one hidden layer of
// a 32-row batch at width 50 (1 600 values), the Go loop beside the
// entry point, which runs this build's family (copying the input back
// in is part of both).
func BenchmarkMatActivation(b *testing.B) {
	r := rng.New(30)
	x := make([]float64, 32*50)
	for i := range x {
		x[i] = 2 * r.Norm()
	}
	buf := make([]float64, len(x))
	for _, op := range activationOps {
		for _, f := range []struct {
			name string
			fn   func([]float64)
		}{{"go", op.want}, {Kernel(), op.run}} {
			b.Run(op.name+"/"+f.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, x)
					f.fn(buf)
				}
			})
		}
	}
}

// elementwiseSizes are the parameter counts of the largest networks the
// solo-paper workload trains, [50 50] hidden layers: satimage (36
// features, 6 classes) and a9a (123 features, 2 classes).
var elementwiseSizes = []int{4706, 8852}

// BenchmarkMatElementwise times each per-parameter kernel over a whole
// parameter vector, the Go reference loop beside the entry point, which
// runs this build's family. The step kernels include the sum of squares
// they carry; sumsq, a Go loop only, is the standalone chain over the
// weights that carrying it saves a loss. The state a step moves is reset by a copy
// in both columns.
func BenchmarkMatElementwise(b *testing.B) {
	for _, n := range elementwiseSizes {
		r := rng.New(uint64(40 + n))
		vec := func(scale float64) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = scale * r.Norm()
			}
			return v
		}
		p0, m0, v0, g := vec(0.1), vec(1e-3), vec(1e-6), vec(1e-2)
		for i := range v0 {
			v0[i] *= v0[i]
		}
		dir, gPrev, z := vec(1e-2), vec(1e-2), vec(1)
		p, m, v, s, y := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		c := AdamCoeffs{0.9, 0.1, 0.999, 0.001, 1e-3, 0.1, 0.001, 1e-8}
		kernels := []struct {
			name     string
			goLoop   func()
			dispatch func()
		}{
			{"adam",
				func() { copy(p, p0); copy(m, m0); copy(v, v0); adamStepGo(p, m, v, g, &c, 0) },
				func() { copy(p, p0); copy(m, m0); copy(v, v0); AdamStep(p, m, v, g, c, 0) }},
			{"sgd",
				func() { copy(p, p0); copy(v, m0); sgdStepGo(p, v, g, 0.9, 1e-3, false, 0) },
				func() { copy(p, p0); copy(v, m0); SGDStep(p, v, g, 0.9, 1e-3, false, 0) }},
			{"sgd-nesterov",
				func() { copy(p, p0); copy(v, m0); sgdStepGo(p, v, g, 0.9, 1e-3, true, 0) },
				func() { copy(p, p0); copy(v, m0); SGDStep(p, v, g, 0.9, 1e-3, true, 0) }},
			{"trial-step",
				func() { axpyToGo(p, 0.5, dir, p0, 0) },
				func() { AxpyTo(p, 0.5, dir, p0, 0) }},
			{"sumsq", func() { sumSq(0, p0) }, nil},
			{"l2fold",
				func() { foldL2Go(s, g, p0, 1e-4, 37) },
				func() { FoldL2(s, g, p0, 1e-4, 37) }},
			{"axpy",
				func() { copy(p, p0); axpyGo(-0.3, dir, p) },
				func() { copy(p, p0); Axpy(-0.3, dir, p) }},
			{"scale",
				func() { copy(p, p0); scaleGo(0.7, p) },
				func() { copy(p, p0); Scale(0.7, p) }},
			{"axpydot",
				func() { copy(p, p0); axpyDotGo(-0.3, dir, p, true, z) },
				func() { copy(p, p0); AxpyDot(-0.3, dir, p, true, z) }},
			{"curvature-pair",
				func() { curvaturePairGo(s, y, 0.5, dir, g, gPrev) },
				func() { CurvaturePair(s, y, 0.5, dir, g, gPrev) }},
		}
		for _, k := range kernels {
			for _, f := range []struct {
				name string
				fn   func()
			}{{"go", k.goLoop}, {Kernel(), k.dispatch}} {
				if f.fn == nil {
					continue
				}
				b.Run(fmt.Sprintf("%s/%d/%s", k.name, n, f.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						f.fn()
					}
				})
			}
		}
	}
}
