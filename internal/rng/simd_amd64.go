//go:build amd64 && !purego

package rng

import "enhancedbhpo/internal/cpu"

// lanesAVX2 selects FillUniformLanes's AVX2 kernel, once, from CPUID.
var lanesAVX2 = cpu.AVX2

// uniformavx is FillUniformLanes's four-lane body (simd_amd64.s): lane
// l runs the generator whose state words are s[0][l]…s[3][l] over n
// values into dN (N = l), each value x·scale as FillUniform computes
// it, and adds their squares to sq[l]; s and sq are updated in place.
//
//go:noescape
func uniformavx(s *[4][4]uint64, d0, d1, d2, d3 *float64, n uintptr, scale float64, sq *[4]float64)
