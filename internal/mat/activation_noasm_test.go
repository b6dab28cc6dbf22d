//go:build !amd64 || purego

package mat

// kernelVariants is empty without the assembly.
func kernelVariants() []kernelVariant { return nil }
