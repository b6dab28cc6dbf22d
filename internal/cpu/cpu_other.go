//go:build !amd64 || purego

package cpu

// Without the assembly (other architectures, -tags purego builds) no
// kernel needs an extension.
const AVX2, FMA = false, false
