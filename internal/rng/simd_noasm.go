//go:build !amd64 || purego

package rng

// Without the assembly FillUniformLanes runs FillUniform lane by lane;
// the stub below is unreachable.
const lanesAVX2 = false

func uniformavx(s *[4][4]uint64, d0, d1, d2, d3 *float64, n uintptr, scale float64, sq *[4]float64) {
	panic("rng: SIMD kernel called on a platform without SIMD support")
}
