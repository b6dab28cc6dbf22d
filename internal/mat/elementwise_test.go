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

// bitwiseSum compares a sum of squares or a dot product. Its chain can
// meet two NaNs, and which one's payload an add returns depends on the
// order of its operands, which the Go compiler does not fix for the
// reference loop (a -race build swaps them), so a NaN sum is held to
// being NaN; every other sum, bit for bit.
func bitwiseSum(t *testing.T, label string, got, want float64) {
	t.Helper()
	if math.IsNaN(want) && math.IsNaN(got) {
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %x, want %x", label, math.Float64bits(got), math.Float64bits(want))
	}
}

// sumSq is a fresh chain sq + v₀² + v₁² + … over v, the sum the step
// kernels carry.
func sumSq(sq float64, v []float64) float64 {
	for _, x := range v {
		sq += float64(x * x)
	}
	return sq
}

// elementwiseRun is one implementation of the per-parameter kernels
// that the reference loops are held against.
type elementwiseRun struct {
	name    string
	adam    func(p, m, v, g []float64, c AdamCoeffs, sq float64) float64
	sgd     func(p, vel, g []float64, mu, lr float64, nesterov bool, sq float64) float64
	axpyTo  func(dst []float64, a float64, x, y []float64, sq float64) float64
	from    func(p, base, dir []float64, step float64, neg bool, z []float64, dot, sq float64) (float64, float64)
	axpy    func(a float64, x, y []float64)
	scaleTo func(dst []float64, s float64, x []float64)
	axpyDot func(a float64, x, y []float64, neg bool, z []float64) float64
	pair    func(s, y []float64, step float64, dir, g, gPrev []float64) (sy, yy, gg, sg float64)
	foldL   func(g, gw, w []float64, alpha, n float64)
}

// elementwiseRuns are the assembly called directly (where the CPU has
// it) and the public entry points, which run the family this build
// selected: the assembly natively, the Go loops under -tags purego.
func elementwiseRuns() []elementwiseRun {
	runs := []elementwiseRun{{"dispatch/" + Kernel(), AdamStep, SGDStep, AxpyTo, StepFrom, Axpy, ScaleTo, AxpyDot, CurvaturePair, FoldL2}}
	if simdAvailable {
		runs = append(runs, elementwiseRun{"avx",
			func(p, m, v, g []float64, c AdamCoeffs, sq float64) float64 {
				if len(p) == 0 {
					return sq
				}
				return adamavx(&p[0], &m[0], &v[0], &g[0], uintptr(len(p)), &c, sq)
			},
			func(p, vel, g []float64, mu, lr float64, nesterov bool, sq float64) float64 {
				if len(p) == 0 {
					return sq
				}
				var nest uintptr
				if nesterov {
					nest = 1
				}
				return sgdavx(&p[0], &vel[0], &g[0], uintptr(len(p)), mu, lr, nest, sq)
			},
			func(dst []float64, a float64, x, y []float64, sq float64) float64 {
				if len(dst) == 0 {
					return sq
				}
				return axpytoavx(&dst[0], &x[0], &y[0], uintptr(len(dst)), a, sq)
			},
			func(p, base, dir []float64, step float64, neg bool, z []float64, dot, sq float64) (float64, float64) {
				if len(p) == 0 {
					return dot, sq
				}
				var mask uint64
				if neg {
					mask = 1 << 63
				}
				return stepfromavx(&p[0], &base[0], &dir[0], &z[0], uintptr(len(p)), step, mask, dot, sq)
			},
			func(a float64, x, y []float64) {
				if len(x) > 0 {
					axpyavx(&x[0], &y[0], uintptr(len(x)), a)
				}
			},
			func(dst []float64, s float64, x []float64) {
				if len(x) > 0 {
					scaleavx(&dst[0], &x[0], uintptr(len(x)), s)
				}
			},
			func(a float64, x, y []float64, neg bool, z []float64) float64 {
				if len(y) == 0 {
					return 0
				}
				var mask uint64
				if neg {
					mask = 1 << 63
				}
				return axpydotavx(&x[0], &y[0], &z[0], uintptr(len(y)), a, mask)
			},
			func(s, y []float64, step float64, dir, g, gPrev []float64) (sy, yy, gg, sg float64) {
				if len(s) == 0 {
					return 0, 0, 0, 0
				}
				return pairavx(&s[0], &y[0], &dir[0], &g[0], &gPrev[0], uintptr(len(s)), step)
			},
			func(g, gw, w []float64, alpha, n float64) {
				if len(g) == 0 {
					return
				}
				foldl2avx(&g[0], &gw[0], &w[0], uintptr(len(g)), alpha, n)
			}})
	}
	return runs
}

// draws returns k slices of n values from ordinary, with one of them,
// at random, replaced by a special at a third of the positions: each
// element has at most one non-finite source, so a NaN result carries one
// payload whichever operand order an instruction uses.
func draws(r *rng.RNG, n, k int) [][]float64 {
	out := make([][]float64, k)
	for j := range out {
		out[j] = make([]float64, n)
		for i := range out[j] {
			out[j][i] = ordinary(r)
		}
	}
	for i := 0; i < n; i++ {
		if r.Uint64()%3 == 0 {
			out[r.Uint64()%uint64(k)][i] = elementwiseSpecials[r.Uint64()%uint64(len(elementwiseSpecials))]
		}
	}
	return out
}

func clone(v []float64) []float64 { return append([]float64(nil), v...) }

// TestElementwiseKernelsMatchGo holds every per-parameter kernel against
// its Go reference loop, bit for bit — the values written and the sum of
// squares or dot products returned (a NaN sum as NaN, see bitwiseSum) —
// at every length from 0 to 67
// (every tail size of the 4- and 8-wide loops) with signed zeros,
// subnormals, infinities and NaNs among the inputs. The step kernels'
// sums are held against a fresh chain over what they wrote too, and
// FoldL2 runs row counts from 1 to 2²⁰, with α·w/rows down in the
// subnormals.
func TestElementwiseKernelsMatchGo(t *testing.T) {
	const beta1, beta2 = 0.9, 0.999
	coeffs := []AdamCoeffs{
		{beta1, 1 - beta1, beta2, 1 - beta2, 1e-3, 1 - math.Pow(beta1, 1), 1 - math.Pow(beta2, 1), 1e-8},
		{beta1, 1 - beta1, beta2, 1 - beta2, 0.37, 1 - math.Pow(beta1, 7), 1 - math.Pow(beta2, 7), 1e-8},
	}
	sgds := []struct {
		mu, lr   float64
		nesterov bool
	}{{0.9, 1e-3, false}, {0.9, 1e-3, true}, {0.37, 0.25, true}}
	scalars := []float64{1, -1, -0.37, 2.5e-3, 1.0 / 3}
	var folds []struct{ alpha, n float64 }
	for _, rows := range []float64{1, 2, 17, 32, 37, 64, 128, 1 << 20} {
		for _, alpha := range []float64{0, 1e-4, 3.7} {
			folds = append(folds, struct{ alpha, n float64 }{alpha, rows})
		}
	}
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
					sq0 := float64(ci) * 3.5
					wp, wm, wv := clone(p), clone(m), clone(v)
					want := adamStepGo(wp, wm, wv, g, &c, sq0)
					got := run.adam(p, m, v, g, c, sq0)
					label := fmt.Sprintf("adam n=%d coeffs %d", n, ci)
					bitwiseSlices(t, label+" m", m, wm)
					bitwiseSlices(t, label+" v", v, wv)
					bitwiseSlices(t, label+" p", p, wp)
					bitwiseSum(t, label+" Σp²", got, want)
					bitwiseSum(t, label+" Σp² chain", want, sumSq(sq0, wp))
				}
				for si, c := range sgds {
					d := draws(r, n, 3)
					p, vel, g := d[0], d[1], d[2]
					sq0 := float64(si) * 2.25
					wp, wvel := clone(p), clone(vel)
					want := sgdStepGo(wp, wvel, g, c.mu, c.lr, c.nesterov, sq0)
					got := run.sgd(p, vel, g, c.mu, c.lr, c.nesterov, sq0)
					label := fmt.Sprintf("sgd n=%d %+v", n, c)
					bitwiseSlices(t, label+" vel", vel, wvel)
					bitwiseSlices(t, label+" p", p, wp)
					bitwiseSum(t, label+" Σp²", got, want)
					bitwiseSum(t, label+" Σp² chain", want, sumSq(sq0, wp))
				}
				for ai, a := range scalars {
					d := draws(r, n, 3)
					x, y, z := d[0], d[1], d[2]
					label := fmt.Sprintf("n=%d a=%g", n, a)

					want := make([]float64, n)
					wantSq := axpyToGo(want, a, x, y, a)
					got := make([]float64, n)
					bitwiseSum(t, "axpyto "+label+" Σ", run.axpyTo(got, a, x, y, a), wantSq)
					bitwiseSlices(t, "axpyto "+label, got, want)
					bitwiseSum(t, "axpyto "+label+" chain", wantSq, sumSq(a, want))
					// In place, as dst may be y.
					yy := clone(y)
					bitwiseSum(t, "axpyto "+label+" in place Σ", run.axpyTo(yy, a, x, yy, a), wantSq)
					bitwiseSlices(t, "axpyto "+label+" in place", yy, want)

					wy, gy := clone(y), clone(y)
					axpyGo(a, x, wy)
					run.axpy(a, x, gy)
					bitwiseSlices(t, "axpy "+label, gy, wy)

					wx, gx := make([]float64, n), make([]float64, n)
					scaleToGo(wx, a, x)
					run.scaleTo(gx, a, x)
					bitwiseSlices(t, "scaleto "+label, gx, wx)
					// In place, as Scale runs it.
					gx = clone(x)
					run.scaleTo(gx, a, gx)
					bitwiseSlices(t, "scale "+label, gx, wx)
					if a == -1 {
						// L-BFGS's steepest descent: a negating copy keeps
						// each value's bits but the sign, NaN payloads too.
						for i, v := range x {
							if math.Float64bits(gx[i]) != math.Float64bits(v)^1<<63 && !math.IsNaN(v) {
								t.Fatalf("scale %s: element %d = %x, −x %x", label, i, math.Float64bits(gx[i]), math.Float64bits(v)^1<<63)
							}
						}
					}

					neg := ai%2 == 1
					// StepFrom from point y along x, z the gradient,
					// against its reference and against the passes it
					// fuses: the negation and Σz·dir chain of a negating
					// AxpyDot, the copy, and AxpyTo.
					for _, neg := range []bool{false, true} {
						l := fmt.Sprintf("stepfrom %s neg=%v", label, neg)
						wp, wb, wd := clone(y), make([]float64, n), clone(x)
						wDot, wSq := stepFromGo(wp, wb, wd, a, neg, z, 0.5, a)
						gp, gb, gd := clone(y), make([]float64, n), clone(x)
						gDot, gSq := run.from(gp, gb, gd, a, neg, z, 0.5, a)
						bitwiseSlices(t, l+" p", gp, wp)
						bitwiseSlices(t, l+" base", gb, wb)
						bitwiseSlices(t, l+" dir", gd, wd)
						bitwiseSum(t, l+" Σz·dir", gDot, wDot)
						bitwiseSum(t, l+" Σp²", gSq, wSq)
						cd, cDot := clone(x), 0.5
						for i := range cd {
							if neg {
								cd[i] = -cd[i]
							}
							cDot += float64(z[i] * cd[i])
						}
						cp := make([]float64, n)
						cSq := axpyToGo(cp, a, cd, y, a)
						bitwiseSlices(t, l+" p as AxpyTo", wp, cp)
						bitwiseSlices(t, l+" base as a copy", wb, y)
						bitwiseSlices(t, l+" dir negated", wd, cd)
						bitwiseSum(t, l+" Σp² as AxpyTo", wSq, cSq)
						bitwiseSum(t, l+" Σz·dir as a chain", wDot, cDot)
					}
					wy, gy = clone(y), clone(y)
					wantDot := axpyDotGo(a, x, wy, neg, z)
					bitwiseSum(t, fmt.Sprintf("axpydot %s neg=%v Σ", label, neg), run.axpyDot(a, x, gy, neg, z), wantDot)
					bitwiseSlices(t, fmt.Sprintf("axpydot %s neg=%v", label, neg), gy, wy)
				}
				for _, step := range []float64{1, 0.5, 0x1p-29, 0.37} {
					d := draws(r, n, 3)
					dir, g, gPrev := d[0], d[1], d[2]
					ws, wy := make([]float64, n), make([]float64, n)
					wsy, wyy, wgg, wsg := curvaturePairGo(ws, wy, step, dir, g, gPrev)
					gs, gy := make([]float64, n), make([]float64, n)
					sy, yy, gg, sg := run.pair(gs, gy, step, dir, g, gPrev)
					label := fmt.Sprintf("pair n=%d step=%g", n, step)
					bitwiseSlices(t, label+" s", gs, ws)
					bitwiseSlices(t, label+" y", gy, wy)
					bitwiseSum(t, label+" sᵀy", sy, wsy)
					bitwiseSum(t, label+" yᵀy", yy, wyy)
					bitwiseSum(t, label+" gᵀg", gg, wgg)
					bitwiseSum(t, label+" sᵀg", sg, wsg)
					// sᵀg stands in for the next two-loop recursion's
					// first Dot(s, g).
					bitwiseSum(t, label+" sᵀg as Dot", wsg, Dot(ws, g))
				}
				for _, f := range folds {
					gw, w := make([]float64, n), make([]float64, n)
					for i := range w {
						gw[i], w[i] = ordinary(r), ordinary(r)
						switch r.Uint64() % 4 {
						case 0:
							gw[i] = elementwiseSpecials[r.Uint64()%uint64(len(elementwiseSpecials))]
						case 1:
							w[i] = elementwiseSpecials[r.Uint64()%7] // finite or ±Inf
						case 2:
							// α·w/rows lands among the subnormals.
							gw[i], w[i] = 0, r.Norm()*1e-300
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

// TestElementwiseLengthMismatchPanics pins the length checks of the
// entry points.
func TestElementwiseLengthMismatchPanics(t *testing.T) {
	a, b := make([]float64, 3), make([]float64, 4)
	assertPanics(t, "adam", func() { AdamStep(a, a, a, b, AdamCoeffs{}, 0) })
	assertPanics(t, "sgd", func() { SGDStep(a, a, b, 0.9, 0.1, false, 0) })
	assertPanics(t, "axpyto", func() { AxpyTo(a, 1, a, b, 0) })
	assertPanics(t, "stepfrom", func() { StepFrom(a, a, a, 1, false, b, 0, 0) })
	assertPanics(t, "axpydot", func() { AxpyDot(1, a, a, false, b) })
	assertPanics(t, "curvature pair", func() { CurvaturePair(a, a, 1, a, a, b) })
	assertPanics(t, "axpy", func() { Axpy(1, a, b) })
	assertPanics(t, "scaleto", func() { ScaleTo(a, -1, b) })
	assertPanics(t, "l2 fold", func() { FoldL2(a, b, a, 1, 1) })
}
