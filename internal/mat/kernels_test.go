package mat

import (
	"fmt"
	"os"
	"testing"

	"enhancedbhpo/internal/rng"
)

// kernelShapes covers the degenerate, prime, tall, wide and MLP-typical
// cases: (m, k, n) for dst(m×n) = a(m×k) * b(k×n). The odd sizes land in
// every unroll remainder path (k%4, n%4) and the large ones cross the
// parallel threshold.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 5, 1},
	{2, 3, 4},
	{7, 13, 31},
	{5, 4, 257},
	{257, 3, 5},
	{3, 257, 5},
	{32, 50, 50},
	{64, 33, 17},
	{97, 101, 103},
	{128, 100, 100},
}

func randDense(r *rng.RNG, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	d := m.Data()
	for i := range d {
		// Mix magnitudes and exact zeros so the naive kernels' av == 0
		// skip path is exercised against the branch-free blocked path.
		switch r.Uint64() % 8 {
		case 0:
			d[i] = 0
		case 1:
			d[i] = r.Norm() * 1e6
		default:
			d[i] = r.Norm()
		}
	}
	return m
}

func bitwiseEqual(t *testing.T, label string, got, want *Dense) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	for i := range wd {
		if gd[i] != wd[i] {
			t.Fatalf("%s: element %d = %x, want %x (not bitwise identical)",
				label, i, gd[i], wd[i])
		}
	}
}

// TestBlockedKernelsMatchNaiveBitwise pins the core tuned-kernel
// contract: for every shape and worker count (1, 2, 8), the blocked and
// parallel kernels produce results bit-for-bit identical to the retained
// naive references on finite inputs.
func TestBlockedKernelsMatchNaiveBitwise(t *testing.T) {
	workerCounts := []int{1, 2, 8}
	for si, sh := range kernelShapes {
		r := rng.New(uint64(1000 + si))
		t.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(t *testing.T) {
			// Mul: a(m×k) * b(k×n).
			a := randDense(r, sh.m, sh.k)
			b := randDense(r, sh.k, sh.n)
			want := NewDense(sh.m, sh.n)
			NaiveMul(want, a, b)
			for _, w := range workerCounts {
				got := NewDense(sh.m, sh.n)
				got.Fill(42) // stale contents must not leak through
				MulWorkers(got, a, b, w)
				bitwiseEqual(t, fmt.Sprintf("Mul workers=%d", w), got, want)
			}

			// MulT: a(m×k) * b(n×k)ᵀ.
			bt := randDense(r, sh.n, sh.k)
			wantT := NewDense(sh.m, sh.n)
			NaiveMulT(wantT, a, bt)
			for _, w := range workerCounts {
				got := NewDense(sh.m, sh.n)
				got.Fill(42)
				MulTWorkers(got, a, bt, w)
				bitwiseEqual(t, fmt.Sprintf("MulT workers=%d", w), got, wantT)
			}

			// TMul: a(k×m)ᵀ * b(k×n).
			at := randDense(r, sh.k, sh.m)
			b2 := randDense(r, sh.k, sh.n)
			wantG := NewDense(sh.m, sh.n)
			NaiveTMul(wantG, at, b2)
			for _, w := range workerCounts {
				got := NewDense(sh.m, sh.n)
				got.Fill(42)
				TMulWorkers(got, at, b2, w)
				bitwiseEqual(t, fmt.Sprintf("TMul workers=%d", w), got, wantG)
			}
		})
	}
}

// TestParallelWorkerCountDeterminism forces the parallel path (a shape
// well past the flop threshold) and pins bitwise-identical output for
// every worker count, including ones that do not divide the row count.
func TestParallelWorkerCountDeterminism(t *testing.T) {
	r := rng.New(77)
	const m, k, n = 131, 64, 64 // 131*64*64 ≈ 537k flops > parallelMinFlops
	a := randDense(r, m, k)
	b := randDense(r, k, n)
	base := NewDense(m, n)
	MulWorkers(base, a, b, 1)
	for _, w := range []int{2, 3, 5, 8, 64, 500} {
		got := NewDense(m, n)
		MulWorkers(got, a, b, w)
		bitwiseEqual(t, fmt.Sprintf("workers=%d", w), got, base)
	}
	// Default dispatch (workers=0 → GOMAXPROCS) must agree too.
	got := NewDense(m, n)
	Mul(got, a, b)
	bitwiseEqual(t, "workers=default", got, base)
}

// TestSetKernelDispatch pins that the benchmark escape hatch really
// routes the public entry points to the naive kernels and restores.
func TestSetKernelDispatch(t *testing.T) {
	wantDefault := Blocked
	if SIMDAvailable() {
		wantDefault = SIMD
	}
	// The forced-fallback CI run (`make fallback`) overrides the default
	// family via BHPO_KERNEL; the pinned expectation follows it.
	if name := os.Getenv("BHPO_KERNEL"); name != "" {
		if parsed, err := ParseKernel(name); err == nil {
			wantDefault = normalizeKernel(parsed)
		}
	}
	prev := SetKernel(NaiveKernel)
	if prev != wantDefault {
		t.Fatalf("default kernel = %v, want %v", prev, wantDefault)
	}
	defer SetKernel(prev)
	r := rng.New(5)
	a := randDense(r, 6, 7)
	b := randDense(r, 7, 8)
	got := NewDense(6, 8)
	Mul(got, a, b)
	want := NewDense(6, 8)
	NaiveMul(want, a, b)
	bitwiseEqual(t, "naive dispatch", got, want)
	if back := SetKernel(Blocked); back != NaiveKernel {
		t.Fatalf("SetKernel returned %d, want NaiveKernel", back)
	}
}

// TestBlockedKernelsTiledShapes extends the bitwise parity pin to wide
// operands (b.cols ≥ 512, far past any layer the paper's networks
// form), including odd sizes that land in every unroll remainder. Runs
// under whatever kernel family is active (the forced-fallback CI run
// repeats it with BHPO_KERNEL=blocked).
func TestBlockedKernelsTiledShapes(t *testing.T) {
	wideShapes := []struct{ m, k, n int }{
		{1, 64, 512},
		{4, 64, 512},
		{9, 67, 515},   // odd everything: k%4, j%4 tails
		{65, 129, 600}, // parallel path
		{3, 300, 1024}, // deep k
	}
	for si, sh := range wideShapes {
		r := rng.New(uint64(4000 + si))
		t.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(t *testing.T) {
			a := randDense(r, sh.m, sh.k)
			b := randDense(r, sh.k, sh.n)
			want := NewDense(sh.m, sh.n)
			NaiveMul(want, a, b)
			for _, w := range []int{1, 3, 8} {
				got := NewDense(sh.m, sh.n)
				got.Fill(42)
				MulWorkers(got, a, b, w)
				bitwiseEqual(t, fmt.Sprintf("Mul workers=%d", w), got, want)
			}

			at := randDense(r, sh.k, sh.m)
			wantG := NewDense(sh.m, sh.n)
			NaiveTMul(wantG, at, b)
			for _, w := range []int{1, 3, 8} {
				got := NewDense(sh.m, sh.n)
				got.Fill(42)
				TMulWorkers(got, at, b, w)
				bitwiseEqual(t, fmt.Sprintf("TMul workers=%d", w), got, wantG)
			}
		})
	}
}

// TestColSumsInto pins the allocation-free column-sum path against the
// allocating one.
func TestColSumsInto(t *testing.T) {
	r := rng.New(9)
	m := randDense(r, 11, 7)
	want := ColSums(m)
	got := make([]float64, 7)
	for i := range got {
		got[i] = -1 // must be overwritten, not accumulated into
	}
	ColSumsInto(got, m)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("col %d: %v != %v", j, got[j], want[j])
		}
	}
	assertPanics(t, "length mismatch", func() { ColSumsInto(make([]float64, 3), m) })
}
