//go:build amd64 && !purego

package mat

import (
	"math"
	"reflect"
	"testing"
)

// kernelVariants are the exp variants this CPU can run: the plain one
// wherever the SIMD family runs, the FMA one too where CPUID reports
// FMA.
func kernelVariants() []kernelVariant {
	if !simdAvailable {
		return nil
	}
	vs := []kernelVariant{{"plain", false, expavx, logisticavx, tanhavx}}
	if detectFMA() {
		vs = append(vs, kernelVariant{"fma", true, expfmaavx, logisticfmaavx, tanhfmaavx})
	}
	return vs
}

// TestExpVariantChosen holds the choice made at init: where the SIMD
// family runs, a variant is in use (the Go loops are the fallback for a
// CPU that matches neither, not for a broken kernel), and it is the one
// whose body math.Exp runs, checked beyond the probe; where the CPU has
// FMA, the two kernels also differ on the probe themselves.
func TestExpVariantChosen(t *testing.T) {
	if !simdAvailable {
		t.Skip("this CPU has no AVX2 kernels")
	}
	if expKernel == nil {
		t.Fatal("no exp variant reproduces math.Exp on this CPU")
	}
	fma := reflect.ValueOf(expKernel).Pointer() == reflect.ValueOf(expfmaavx).Pointer()
	x := make([]float64, 4000)
	for i := range x {
		x[i] = 1400*float64(i)/float64(len(x)) - 700 + 1e-3*float64(i%7)
	}
	for _, v := range x {
		if got, want := math.Exp(v), expRef(v, fma); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("variant fma=%v chosen, but math.Exp(%v) = %x, its reference %x", fma, v, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if detectFMA() {
		p, q := expProbe(), expProbe()
		expavx(&p[0], uintptr(len(p)))
		expfmaavx(&q[0], uintptr(len(q)))
		for i := range p {
			if math.Float64bits(p[i]) != math.Float64bits(q[i]) {
				return
			}
		}
		t.Fatal("the FMA and plain exp kernels agree on every probe")
	}
}
