// Package cpu probes, once at init, the instruction-set extensions the
// repository's assembly kernels need. It is the only source of that
// choice: no flag, setting or environment variable reaches it, so a
// kernel family is a property of the machine and the build.
package cpu
