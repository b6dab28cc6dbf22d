//go:build amd64 && !purego

package cpu

// AVX2 reports whether both the CPU and the OS support AVX2 with full
// YMM state.
var AVX2 = detectAVX2()

// FMA reports whether the CPU has FMA3 (the OS's YMM state is AVX2's
// part).
var FMA = detectFMA()

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (OS-enabled SIMD state).
func xgetbv0() (eax, edx uint32)

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (XMM) and 2 (YMM) must both be OS-enabled.
	if xlo, _ := xgetbv0(); xlo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

func detectFMA() bool {
	_, _, c1, _ := cpuid(1, 0)
	return c1&(1<<12) != 0
}
