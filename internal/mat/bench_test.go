package mat

import (
	"testing"

	"enhancedbhpo/internal/rng"
)

// The matmul benchmarks time the blocked and the SIMD row kernels side by
// side (simd where the CPU has it) on identical data at MLP-typical
// shapes, so the ns/op ratio is the SIMD speedup itself. Each call
// computes every destination row sequentially, as Mul, MulT and TMul do.
// `make bench-smoke` runs them for one iteration so they cannot rot.

// matShapes are (batch × width × width) products as they occur inside
// nn.Fit on the Table III search space.
var matShapes = []struct {
	name    string
	m, k, n int
}{
	{"batch32_w50", 32, 50, 50},
	{"batch128_w100", 128, 100, 100},
	{"batch256_w200", 256, 200, 200},
	{"batch64_w512", 64, 512, 512},
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

// BenchmarkMatMulT times dst = a*bᵀ (the backprop delta propagation).
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
