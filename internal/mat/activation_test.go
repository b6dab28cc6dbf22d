package mat

import (
	"fmt"
	"math"
	"testing"

	"enhancedbhpo/internal/rng"
)

// expRef is math.archExp (exp_amd64.s) over its fast range |x| ≤ 700,
// written out in Go: fma selects the body math.Exp runs where the CPU
// has FMA, where every commented multiply-add below is one rounding;
// otherwise every product and sum is rounded. It is the reference each
// exp variant of the assembly is held against, whichever of the two
// bodies this process's math.Exp runs.
func expRef(x float64, fma bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	taylor := [...]float64{
		2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1,
	}
	k := math.RoundToEven(float64(log2e * x)) // CVTSD2SL under the default MXCSR
	var r float64
	if fma {
		r = math.FMA(-k, ln2u, x)
		r = math.FMA(-k, ln2l, r) * 0.0625
		p := taylor[0]
		for _, c := range taylor[1:] {
			p = math.FMA(p, r, c)
		}
		r *= p
		for i := 0; i < 3; i++ {
			r *= r + 2
		}
		r = math.FMA(r, r+2, 1)
	} else {
		r = x - float64(k*ln2u)
		r = (r - float64(k*ln2l)) * 0.0625
		p := taylor[0]
		for _, c := range taylor[1:] {
			p = float64(p*r) + c
		}
		r *= p
		for i := 0; i < 4; i++ {
			r *= r + 2
		}
		r++
	}
	return r * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// tanhWith is math.tanh with exp in place of math.Exp.
func tanhWith(x float64, exp func(float64) float64) float64 {
	const maxLog = 8.8029691931113054295988e+01
	z := math.Abs(x)
	switch {
	case z > 0.5*maxLog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		s := exp(2 * z)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := x * x
		z = x + x*s*((-9.64399179425052238628e-1*s+-9.92877231001918586564e1)*s+-1.61468768441708447952e3)/
			(((s+1.12811678491632931402e2)*s+2.23548839060100448583e3)*s+4.84406305325125486048e3)
	}
	return z
}

// activationEdges are the inputs where the kernels' branches and ranges
// meet, each with its math.Nextafter neighbours and negated: tanh's
// branch points 0.625 and MAXLOG/2, exp's fast-range bound 700, the
// largest input math.Exp does not overflow on and the smallest it does
// not underflow to zero on.
var activationEdges = func() []float64 {
	var out []float64
	for _, e := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01, 700, 7.09782712893384e+02, 745.1332191019411} {
		for _, v := range []float64{math.Nextafter(e, 0), e, math.Nextafter(e, math.Inf(1))} {
			out = append(out, v, -v)
		}
	}
	return out
}()

// expWitnesses are fast-range inputs on which exp's last bit depends on
// one late fused stage of the FMA body: the 1/3! and the 1/2 step of the
// Taylor polynomial. A random input exposes either with a chance near
// 1e-8, so they are listed; the two final multiply-adds show on many
// inputs, and the earlier stages on none found in 2·10⁸ draws (the
// k·ln2 upper half is an exact product: fused or not, no bit moves).
var expWitnesses = []float64{414.11230235541984, 194.5553638975872, 552.8274021621005, -461.29542188827236}

// activationInput draws one input: mostly ordinary values at the scales
// activations see (fast-range blocks), now and then a special value or
// an edge (blocks the Go loop finishes).
func activationInput(r *rng.RNG) float64 {
	switch r.Uint64() % 16 {
	case 0:
		return elementwiseSpecials[r.Uint64()%uint64(len(elementwiseSpecials))]
	case 1:
		return activationEdges[r.Uint64()%uint64(len(activationEdges))]
	case 2:
		return r.Norm() * 300
	case 3:
		return r.Norm() * 1e-9
	default:
		return r.Norm() * 4
	}
}

// activationOps are the in-place activations, each beside its Go loop.
var activationOps = []struct {
	name      string
	run, want func([]float64)
}{
	{"exp", Exp, expGo},
	{"logistic", Logistic, logisticGo},
	{"tanh", Tanh, tanhGo},
	{"relu", ReLU, reluGo},
}

// derivOps are the derivatives, each beside its Go loop.
var derivOps = []struct {
	name      string
	run, want func(d, a []float64)
}{
	{"logistic", LogisticDeriv, logisticDerivGo},
	{"tanh", TanhDeriv, tanhDerivGo},
	{"relu", ReLUDeriv, reluDerivGo},
}

// kernelVariant is one exp body's kernels, called directly, with the Go
// reference of that body.
type kernelVariant struct {
	name                string
	fma                 bool
	exp, logistic, tanh func(*float64, uintptr) uintptr
}

// TestActivationKernelsMatchGo holds every activation and derivative
// against its Go loop, bit for bit, at every length from 0 to 67 (every
// tail, and blocks finished by the kernel and by Go in every mix), with
// signed zeros, subnormals, infinities, NaN payloads and the branch and
// range edges among the inputs. Each derivative element has at most one
// NaN source, so a NaN result carries one payload whichever operand
// order an instruction uses. Then each exp variant the CPU can run —
// both where it has FMA, whichever one math.Exp takes — is called
// directly and held against the Go reference of its own body: it must
// stop at exactly the first block holding a lane outside its range and
// leave that block and the rest untouched.
func TestActivationKernelsMatchGo(t *testing.T) {
	for n := 0; n <= 67; n++ {
		r := rng.New(uint64(4600 + n))
		for rep := 0; rep < 8; rep++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = activationInput(r)
			}
			for _, op := range activationOps {
				got, want := append([]float64(nil), x...), append([]float64(nil), x...)
				op.run(got)
				op.want(want)
				bitwiseSlices(t, fmt.Sprintf("%s/%s n=%d rep %d", Kernel(), op.name, n, rep), got, want)
			}
			d, a := make([]float64, n), make([]float64, n)
			for i := range d {
				d[i], a[i] = r.Norm(), activationInput(r)
				if math.IsNaN(a[i]) {
					continue
				}
				if r.Uint64()%8 == 0 {
					d[i] = elementwiseSpecials[r.Uint64()%uint64(len(elementwiseSpecials))]
				}
			}
			for _, op := range derivOps {
				got, want := append([]float64(nil), d...), append([]float64(nil), d...)
				op.run(got, a)
				op.want(want, a)
				bitwiseSlices(t, fmt.Sprintf("%s/%s deriv n=%d rep %d", Kernel(), op.name, n, rep), got, want)
			}
		}
	}
	for _, v := range kernelVariants() {
		t.Run(v.name, func(t *testing.T) {
			exp := func(x float64) float64 { return expRef(x, v.fma) }
			expOut := func(x float64) bool { return !(math.Abs(x) <= 700) }
			for _, k := range []struct {
				name    string
				kernel  func(*float64, uintptr) uintptr
				ref     func(float64) float64
				outside func(float64) bool
			}{
				{"exp", v.exp, exp, expOut},
				{"logistic", v.logistic, func(x float64) float64 { return 1 / (1 + exp(-x)) }, expOut},
				{"tanh", v.tanh, func(x float64) float64 { return tanhWith(x, exp) }, math.IsNaN},
			} {
				fixed := append(append([]float64(nil), activationEdges...), elementwiseSpecials...)
				for _, w := range expWitnesses {
					fixed = append(fixed, w, -w)
				}
				for _, x := range fixed {
					got, want, stop := []float64{x, x, x, x}, []float64{x, x, x, x}, 0
					if !k.outside(x) {
						want, stop = []float64{k.ref(x), k.ref(x), k.ref(x), k.ref(x)}, 4
					}
					if done := int(k.kernel(&got[0], 4)); done != stop {
						t.Fatalf("%s(%v): kernel finished %d elements, want %d", k.name, x, done, stop)
					}
					bitwiseSlices(t, fmt.Sprintf("%s(%v)", k.name, x), got, want)
				}
				for n := 0; n <= 67; n++ {
					r := rng.New(uint64(4700 + n))
					for rep := 0; rep < 8; rep++ {
						x := make([]float64, n)
						for i := range x {
							x[i] = activationInput(r)
						}
						stop := n &^ 3
						for i := 0; i < n&^3; i++ {
							if k.outside(x[i]) {
								stop = i &^ 3
								break
							}
						}
						want := append([]float64(nil), x...)
						for i := range want[:stop] {
							want[i] = k.ref(x[i])
						}
						got := append([]float64(nil), x...)
						done := 0
						if n > 0 {
							done = int(k.kernel(&got[0], uintptr(n)))
						}
						label := fmt.Sprintf("%s n=%d rep %d", k.name, n, rep)
						if done != stop {
							t.Fatalf("%s: kernel finished %d elements, want %d", label, done, stop)
						}
						bitwiseSlices(t, label, got, want)
					}
				}
			}
		})
	}
}

// TestExpProbeSeparatesVariants holds the premise of the exp variant
// choice: on expProbe the two bodies of math.Exp give different bits
// somewhere, so no variant can pass the probe in a process whose
// math.Exp runs the other one. It also holds the Go references to
// math.Exp: over the probe and a sample of the fast range, math.Exp
// equals one of the two bodies, the same one throughout, and tanhWith
// over math.Exp equals math.Tanh.
func TestExpProbeSeparatesVariants(t *testing.T) {
	differ := 0
	for _, x := range expProbe() {
		if math.Float64bits(expRef(x, true)) != math.Float64bits(expRef(x, false)) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the FMA and plain exp bodies agree on every probe; the probe cannot tell them apart")
	}
	t.Logf("the two exp bodies differ on %d of %d probes", differ, len(expProbe()))

	r := rng.New(4800)
	xs := expProbe()
	for i := 0; i < 20000; i++ {
		xs = append(xs, 1400*r.Float64()-700, activationInput(r))
	}
	fma := true // which body math.Exp runs: the one it matches on every probe
	for _, x := range expProbe() {
		fma = fma && math.Float64bits(math.Exp(x)) == math.Float64bits(expRef(x, true))
	}
	for _, x := range xs {
		if math.Abs(x) <= 700 {
			if got, want := math.Exp(x), expRef(x, fma); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("math.Exp(%v) = %x, the fma=%v reference %x", x, math.Float64bits(got), fma, math.Float64bits(want))
			}
		}
		if got, want := tanhWith(x, math.Exp), math.Tanh(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tanhWith(%v, math.Exp) = %x, math.Tanh %x", x, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestDerivLengthMismatchPanics pins the derivatives' length check.
func TestDerivLengthMismatchPanics(t *testing.T) {
	a, b := make([]float64, 3), make([]float64, 4)
	for _, op := range derivOps {
		assertPanics(t, op.name, func() { op.run(a, b) })
	}
}
