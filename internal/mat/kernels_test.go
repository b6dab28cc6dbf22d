package mat

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"enhancedbhpo/internal/rng"
)

// kernelShapes covers the degenerate, prime, tall, wide and MLP-typical
// cases: (m, k, n) for dst(m×n) = a(m×k) * b(k×n). The odd sizes land in
// every unroll remainder path (k%4, n%4) and the large ones cross the
// parallel threshold. The last five are the products the served jobs
// form: satimage's 36 features and a9a's 123 into a 30- or 50-wide
// hidden layer, a short tail minibatch, and the 6- and 2-class heads.
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
	{32, 36, 30},
	{32, 123, 50},
	{8, 123, 50},
	{9, 50, 6},
	{32, 50, 2},
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

// wideShapes are operands far wider than any layer the paper's networks
// form (b.cols ≥ 512), with odd sizes in every unroll remainder, the
// parallel path and a deep k.
var wideShapes = []struct{ m, k, n int }{
	{1, 64, 512},
	{4, 64, 512},
	{9, 67, 515},
	{65, 129, 600},
	{3, 300, 1024},
}

// kernelOps are the three matmul forms, each posed as dst(m×n) over an
// inner dimension k, with its oracle, its public entry point, the row
// kernels of both families and dst's row count read off a.
var kernelOps = []struct {
	name     string
	operands func(r *rng.RNG, m, k, n int) (a, b *Dense)
	oracle   func(dst, a, b *Dense)
	public   func(dst, a, b *Dense, workers int)
	rows     [2]rangeKernel // blocked, simd
	rowsOf   func(*Dense) int
}{
	{"Mul", func(r *rng.RNG, m, k, n int) (*Dense, *Dense) { return randDense(r, m, k), randDense(r, k, n) },
		NaiveMul, MulWorkers, [2]rangeKernel{mulBlocked, mulSIMD}, func(a *Dense) int { return a.rows }},
	{"MulT", func(r *rng.RNG, m, k, n int) (*Dense, *Dense) { return randDense(r, m, k), randDense(r, n, k) },
		NaiveMulT, MulTWorkers, [2]rangeKernel{mulTBlocked, mulTSIMD}, func(a *Dense) int { return a.rows }},
	{"TMul", func(r *rng.RNG, m, k, n int) (*Dense, *Dense) { return randDense(r, k, m), randDense(r, k, n) },
		NaiveTMul, TMulWorkers, [2]rangeKernel{tMulBlocked, tMulSIMD}, func(a *Dense) int { return a.cols }},
}

// familyNames are the two matmul families, named as Kernel reports
// them; the index is the entry of a kernelOps rows array.
var familyNames = [2]string{"blocked", "simd"}

// kernelFamilies names the entries of a kernelOps rows array this CPU
// can run.
func kernelFamilies() []string {
	if simdAvailable {
		return familyNames[:]
	}
	return familyNames[:1]
}

// runFamily runs f as the subtest of one kernel family. The SIMD row
// kernels need AVX2, which the CPU may lack and -tags purego builds
// leave out; its subtest is skipped there.
func runFamily(t *testing.T, fi int, f func(t *testing.T)) {
	t.Run(familyNames[fi], func(t *testing.T) {
		if familyNames[fi] == "simd" && !simdAvailable {
			t.Skip("this CPU or build has no AVX2 kernels")
		}
		f(t)
	})
}

func staleDense(m, n int) *Dense {
	d := NewDense(m, n)
	d.Fill(42)
	return d
}

// checkPublicKernels holds the public entry points of every matmul form
// against the naive loops, bit for bit, at several worker counts. Every
// destination starts filled with 42: stale contents must not leak
// through.
func checkPublicKernels(t *testing.T, shapes []struct{ m, k, n int }, seed uint64) {
	for si, sh := range shapes {
		r := rng.New(seed + uint64(si))
		t.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(t *testing.T) {
			for _, op := range kernelOps {
				a, b := op.operands(r, sh.m, sh.k, sh.n)
				want := NewDense(sh.m, sh.n)
				op.oracle(want, a, b)
				for _, w := range []int{1, 2, 3, 4, 8} {
					got := staleDense(sh.m, sh.n)
					op.public(got, a, b, w)
					bitwiseEqual(t, fmt.Sprintf("%s workers=%d", op.name, w), got, want)
				}
			}
		})
	}
}

// TestBlockedKernelsMatchNaiveBitwise pins the public Mul/MulT/TMul
// entry points, under the family this build runs, to the naive loops
// bit for bit over the shape table.
func TestBlockedKernelsMatchNaiveBitwise(t *testing.T) {
	checkPublicKernels(t, kernelShapes, 1000)
}

// TestBlockedKernelsTiledShapes extends the same pin to wideShapes.
func TestBlockedKernelsTiledShapes(t *testing.T) {
	checkPublicKernels(t, wideShapes, 4000)
}

// TestForcedKernelParity calls each family's row kernels directly, over
// two row ranges of every shape, and holds them to the naive loops bit
// for bit, whichever family the public entry points run.
func TestForcedKernelParity(t *testing.T) {
	shapes := append(kernelShapes[:len(kernelShapes):len(kernelShapes)], wideShapes...)
	for fi := range familyNames {
		runFamily(t, fi, func(t *testing.T) {
			for si, sh := range shapes {
				r := rng.New(uint64(7000 + si))
				for _, op := range kernelOps {
					a, b := op.operands(r, sh.m, sh.k, sh.n)
					want := NewDense(sh.m, sh.n)
					op.oracle(want, a, b)
					got := staleDense(sh.m, sh.n)
					rows := op.rowsOf(a)
					op.rows[fi](got, a, b, 0, rows/2)
					op.rows[fi](got, a, b, rows/2, rows)
					bitwiseEqual(t, fmt.Sprintf("%s %dx%dx%d", op.name, sh.m, sh.k, sh.n), got, want)
				}
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

// exportedAPI is everything the package exports at package level. It
// holds no kernel selector: the family is picked once, from CPUID, and
// Kernel only names it.
var exportedAPI = map[string]bool{
	"AdamCoeffs": true, "AdamStep": true, "AddRowVector": true, "Arena": true, "Axpy": true,
	"ColSums": true, "ColSumsInto": true, "Dense": true, "Dot": true, "FoldL2": true,
	"Kernel": true, "Mul": true, "MulT": true, "MulTWorkers": true, "MulWorkers": true,
	"NewDense": true, "NewDenseData": true, "Norm2": true, "Scale": true, "SqDist": true,
	"TMul": true, "TMulWorkers": true,
}

// TestNoKernelSwitch keeps the kernel family a property of the build:
// the package's non-test sources may export nothing beyond exportedAPI,
// and may not import os, so no environment variable can reach a kernel.
func TestNoKernelSwitch(t *testing.T) {
	fset := token.NewFileSet()
	noTests := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, ".", noTests, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	check := func(pos token.Pos, name string) {
		seen++
		if ast.IsExported(name) && !exportedAPI[name] {
			t.Errorf("%s: exported %s; the kernel family is chosen from CPUID, not by a caller", fset.Position(pos), name)
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, imp := range file.Imports {
				if imp.Path.Value == `"os"` {
					t.Errorf("%s: imports os", fset.Position(imp.Pos()))
				}
			}
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						check(decl.Pos(), decl.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							check(spec.Pos(), spec.Name.Name)
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								check(n.Pos(), n.Name)
							}
						}
					}
				}
			}
		}
	}
	if seen < len(exportedAPI) {
		t.Fatalf("saw %d package-level declarations; the scanner is broken", seen)
	}
}
