package mat

import (
	"fmt"
	"math"
)

// Activation kernels: the hidden layers' logistic, tanh and relu, their
// derivatives, and the exponential under the softmax head, each in place
// over a slice. Like AdamStep they run the AVX2 bodies in simd_amd64.s
// where the CPU has them and the Go loops below, which are the
// reference, everywhere else, and the two are bitwise-equal
// (TestActivationKernelsMatchGo). The exp-based kernels compute
// math.Exp lane for lane in the variant this process's math.Exp uses,
// over its fast range; a block of four holding a lane outside it is
// finished by the Go loop, so overflow, underflow, denormals, infinities
// and NaNs keep math.Exp's and math.Tanh's answers.

// Exp sets x[i] = math.Exp(x[i]).
func Exp(x []float64) { blocks(x, expKernel, expGo) }

// Logistic sets x[i] = 1/(1+math.Exp(−x[i])).
func Logistic(x []float64) { blocks(x, logisticKernel, logisticGo) }

// Tanh sets x[i] = math.Tanh(x[i]).
func Tanh(x []float64) { blocks(x, tanhKernel, tanhGo) }

// ReLU sets x[i] = 0 where x[i] < 0.
func ReLU(x []float64) { blocks(x, reluKernel, reluGo) }

// LogisticDeriv multiplies d[i] by a[i]·(1−a[i]), the logistic
// function's derivative at the point where it is a[i].
func LogisticDeriv(d, a []float64) {
	pairBlocks("logistic", d, a, logisticDerivKernel, logisticDerivGo)
}

// TanhDeriv multiplies d[i] by 1−a[i]², tanh's derivative at the point
// where it is a[i].
func TanhDeriv(d, a []float64) { pairBlocks("tanh", d, a, tanhDerivKernel, tanhDerivGo) }

// ReLUDeriv sets d[i] = 0 where a[i] ≤ 0.
func ReLUDeriv(d, a []float64) { pairBlocks("relu", d, a, reluDerivKernel, reluDerivGo) }

// blocks runs kernel over x's whole blocks of four and scalar over the
// rest: the block each kernel call stops at, and the tail. A nil kernel
// leaves all of x to scalar.
func blocks(x []float64, kernel func(*float64, uintptr) uintptr, scalar func([]float64)) {
	i := 0
	for kernel != nil && len(x)-i >= 4 {
		i += int(kernel(&x[i], uintptr(len(x)-i)))
		if len(x)-i < 4 {
			break
		}
		scalar(x[i : i+4])
		i += 4
	}
	scalar(x[i:])
}

// pairBlocks runs a derivative kernel over the whole blocks of four and
// scalar over the tail. d and a must have the same length.
func pairBlocks(name string, d, a []float64, kernel func(d, a *float64, n uintptr), scalar func(d, a []float64)) {
	if len(d) != len(a) {
		panic(fmt.Sprintf("mat: %s derivative length mismatch %d/%d", name, len(d), len(a)))
	}
	k := 0
	if kernel != nil && len(d) >= 4 {
		kernel(&d[0], &a[0], uintptr(len(d)))
		k = len(d) &^ 3
	}
	scalar(d[k:], a[k:])
}

func expGo(x []float64) {
	for i, v := range x {
		x[i] = math.Exp(v)
	}
}

func logisticGo(x []float64) {
	for i, v := range x {
		x[i] = 1 / (1 + math.Exp(-v))
	}
}

func tanhGo(x []float64) {
	for i, v := range x {
		x[i] = math.Tanh(v)
	}
}

func reluGo(x []float64) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// The derivative loops keep a compiler that fuses multiply-add from
// dropping a rounding the assembly performs.
func logisticDerivGo(d, a []float64) {
	a = a[:len(d)]
	for i, av := range a {
		d[i] *= float64(av * (1 - av))
	}
}

func tanhDerivGo(d, a []float64) {
	a = a[:len(d)]
	for i, av := range a {
		d[i] *= 1 - float64(av*av)
	}
}

func reluDerivGo(d, a []float64) {
	a = a[:len(d)]
	for i, av := range a {
		if av <= 0 {
			d[i] = 0
		}
	}
}

// expProbe returns the inputs on which a kernel's exp must reproduce
// math.Exp before it is used: 64 points spread over the fast range by a
// fixed integer sequence. math.Exp's FMA and non-FMA bodies differ on
// several of them (TestExpProbeSeparatesVariants), so only the variant
// of the body this process runs can pass.
func expProbe() []float64 {
	x := make([]float64, 64)
	for i := range x {
		u := uint64(i+1) * 0x9e3779b97f4a7c15
		x[i] = 1400*(float64(u>>11)/(1<<53)) - 700
	}
	return x
}
