package mat

import (
	"fmt"
	"math"
	"testing"

	"enhancedbhpo/internal/rng"
)

// elementwiseSpecials are the values a gradient can hold that ordinary
// draws never produce: signed zeros, subnormals, infinities, a quiet NaN
// with a payload and a signalling NaN.
var elementwiseSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 1e-310,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0x7ff0000000000001),
}

// ordinary draws a finite value over a wide range of magnitudes, signed
// zeros and subnormals included.
func ordinary(r *rng.RNG) float64 {
	switch r.Uint64() % 8 {
	case 0:
		return elementwiseSpecials[r.Uint64()%5]
	case 1:
		return r.Norm() * 1e6
	case 2:
		return r.Norm() * 1e-9
	default:
		return r.Norm()
	}
}

func bitwiseSlices(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %x, want %x", label, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// elementwiseRun is one implementation of the two kernels that the
// reference loops are held against.
type elementwiseRun struct {
	name  string
	adam  func(p, m, v, g []float64, c AdamCoeffs)
	foldL func(g, gw, w []float64, alpha, n float64)
}

// elementwiseRuns are the assembly called directly (where the CPU has
// it) and the public entry points, which run the family this build
// selected: the assembly natively, the Go loops under -tags purego.
func elementwiseRuns() []elementwiseRun {
	runs := []elementwiseRun{{"dispatch/" + Kernel(), AdamStep, FoldL2}}
	if simdAvailable {
		runs = append(runs, elementwiseRun{"avx",
			func(p, m, v, g []float64, c AdamCoeffs) {
				if len(p) > 0 {
					adamavx(&p[0], &m[0], &v[0], &g[0], uintptr(len(p)), &c)
				}
			},
			func(g, gw, w []float64, alpha, n float64) {
				if len(g) > 0 {
					foldl2avx(&g[0], &gw[0], &w[0], uintptr(len(g)), alpha, n)
				}
			}})
	}
	return runs
}

// TestElementwiseKernelsMatchGo holds the Adam step and the L2 fold
// against their Go reference loops, bit for bit, at every length from 0
// to 67 (every tail size of the 4- and 8-wide loops) with signed zeros,
// subnormals, infinities and NaNs among the inputs. Each element has at
// most one non-finite source, so a NaN result carries one payload
// whichever operand order an instruction uses.
func TestElementwiseKernelsMatchGo(t *testing.T) {
	const beta1, beta2 = 0.9, 0.999
	coeffs := []AdamCoeffs{
		{beta1, 1 - beta1, beta2, 1 - beta2, 1e-3, 1 - math.Pow(beta1, 1), 1 - math.Pow(beta2, 1), 1e-8},
		{beta1, 1 - beta1, beta2, 1 - beta2, 0.37, 1 - math.Pow(beta1, 7), 1 - math.Pow(beta2, 7), 1e-8},
	}
	folds := []struct{ alpha, n float64 }{{0, 8}, {1e-4, 17}, {3.7, 1}}
	for _, run := range elementwiseRuns() {
		t.Run(run.name, func(t *testing.T) {
			for n := 0; n <= 67; n++ {
				r := rng.New(uint64(9100 + n))
				for ci, c := range coeffs {
					p, m, v, g := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
					for i := range g {
						p[i], m[i], v[i] = ordinary(r), ordinary(r), math.Abs(ordinary(r))
						g[i] = ordinary(r)
						if r.Uint64()%3 == 0 {
							g[i] = elementwiseSpecials[r.Uint64()%uint64(len(elementwiseSpecials))]
						}
					}
					wp, wm, wv := append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)
					adamStepGo(wp, wm, wv, g, &c)
					run.adam(p, m, v, g, c)
					label := fmt.Sprintf("adam n=%d coeffs %d", n, ci)
					bitwiseSlices(t, label+" m", m, wm)
					bitwiseSlices(t, label+" v", v, wv)
					bitwiseSlices(t, label+" p", p, wp)
				}
				for _, f := range folds {
					gw, w := make([]float64, n), make([]float64, n)
					for i := range w {
						gw[i], w[i] = ordinary(r), ordinary(r)
						switch r.Uint64() % 3 {
						case 0:
							gw[i] = elementwiseSpecials[r.Uint64()%uint64(len(elementwiseSpecials))]
						case 1:
							w[i] = elementwiseSpecials[r.Uint64()%7] // finite or ±Inf
						}
					}
					want := make([]float64, n)
					foldL2Go(want, gw, w, f.alpha, f.n)
					got := make([]float64, n)
					for i := range got {
						got[i] = 42 // must be overwritten
					}
					run.foldL(got, gw, w, f.alpha, f.n)
					label := fmt.Sprintf("l2 fold n=%d alpha=%g rows=%g", n, f.alpha, f.n)
					bitwiseSlices(t, label, got, want)
					// In place, as g may be gw.
					run.foldL(gw, gw, w, f.alpha, f.n)
					bitwiseSlices(t, label+" in place", gw, want)
				}
			}
		})
	}
}

// TestElementwiseLengthMismatchPanics pins the length checks of both
// entry points.
func TestElementwiseLengthMismatchPanics(t *testing.T) {
	a, b := make([]float64, 3), make([]float64, 4)
	assertPanics(t, "adam", func() { AdamStep(a, a, a, b, AdamCoeffs{}) })
	assertPanics(t, "l2 fold", func() { FoldL2(a, b, a, 1, 1) })
}
