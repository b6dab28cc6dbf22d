package mat

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"strings"
	"testing"

	"enhancedbhpo/internal/rng"
)

// kernelShapes covers the degenerate, prime, tall, wide and MLP-typical
// cases: (m, k, n) for dst(m×n) = a(m×k) * b(k×n). The odd sizes land in
// every unroll remainder path (k%4, n%4). The five after the square ones
// are the products the served jobs form: satimage's 36 features and
// a9a's 123 into a 30- or 50-wide hidden layer, a short tail minibatch,
// and the 6- and 2-class heads. tileShapes adds the rest.
var kernelShapes = append([]struct{ m, k, n int }{
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
}, tileShapes()...)

// tileShapes puts each row remainder past the 4-row tiles, m%4 ∈ {1, 2,
// 3}, against each column remainder past the 8-column tiles, n%8 ∈ {1…7}
// both after a whole tile and alone — n = 1 is the regression head of
// kc-house and molecules, 2 and 6 the class heads — at k ∈ {1, 2, 6,
// 123}.
func tileShapes() (shapes []struct{ m, k, n int }) {
	for _, m := range []int{5, 10, 15} {
		for _, k := range []int{1, 2, 6, 123} {
			for r := 1; r < 8; r++ {
				shapes = append(shapes, struct{ m, k, n int }{m, k, r}, struct{ m, k, n int }{m, k, 8 + r})
			}
		}
	}
	return shapes
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
// form (b.cols ≥ 512), with odd sizes in every unroll remainder and a
// deep k.
var wideShapes = []struct{ m, k, n int }{
	{1, 64, 512},
	{4, 64, 512},
	{9, 67, 515},
	{65, 129, 600},
	{3, 300, 1024},
}

// testBias is a bias row of n values for the MulBias form: ordinary
// draws, exact zeros of both signs (a +0 bias turns a −0 sum into +0, as
// adding it afterwards does) and a value large enough to absorb a sum.
func testBias(n int) []float64 {
	r := rng.New(uint64(500 + n))
	bias := make([]float64, n)
	for j := range bias {
		switch j % 5 {
		case 1:
			bias[j] = 0
		case 3:
			bias[j] = math.Copysign(0, -1)
		case 4:
			bias[j] = r.Norm() * 1e17
		default:
			bias[j] = r.Norm()
		}
	}
	return bias
}

// naiveMulBias is MulBias's oracle: NaiveMul, then the bias added to
// every row.
func naiveMulBias(dst, a, b *Dense) {
	NaiveMul(dst, a, b)
	bias := testBias(dst.cols)
	for i := 0; i < dst.rows; i++ {
		for j, v := range bias {
			dst.data[i*dst.cols+j] += v
		}
	}
}

// withBias turns a family's dst = a*b + bias kernel into a rangeKernel,
// with testBias as the bias (nil: none, Mul).
func withBias(k biasKernel, bias bool) rangeKernel {
	return func(dst, a, b *Dense, i0, i1 int) {
		var v []float64
		if bias {
			v = testBias(b.cols)
		}
		k(dst, a, b, v, i0, i1)
	}
}

// kernelOps are the matmul forms, each posed as dst(m×n) over an inner
// dimension k, with its oracle, its public entry point, the row kernels
// of both families and dst's row count read off a. MulBias is Mul with a
// layer's bias row added as the tiles store it.
var kernelOps = []struct {
	name     string
	operands func(r *rng.RNG, m, k, n int) (a, b *Dense)
	oracle   func(dst, a, b *Dense)
	public   func(dst, a, b *Dense)
	rows     [2]rangeKernel // blocked, simd
	rowsOf   func(*Dense) int
}{
	{"Mul", func(r *rng.RNG, m, k, n int) (*Dense, *Dense) { return randDense(r, m, k), randDense(r, k, n) },
		NaiveMul, Mul, [2]rangeKernel{withBias(mulBlocked, false), withBias(mulSIMD, false)}, func(a *Dense) int { return a.rows }},
	{"MulT", func(r *rng.RNG, m, k, n int) (*Dense, *Dense) { return randDense(r, m, k), randDense(r, n, k) },
		NaiveMulT, MulT, [2]rangeKernel{mulTBlocked, mulTSIMD}, func(a *Dense) int { return a.rows }},
	{"TMul", func(r *rng.RNG, m, k, n int) (*Dense, *Dense) { return randDense(r, k, m), randDense(r, k, n) },
		NaiveTMul, TMul, [2]rangeKernel{tMulBlocked, tMulSIMD}, func(a *Dense) int { return a.cols }},
	{"MulBias", func(r *rng.RNG, m, k, n int) (*Dense, *Dense) { return randDense(r, m, k), randDense(r, k, n) },
		naiveMulBias, func(dst, a, b *Dense) { MulBias(dst, a, b, testBias(b.cols)) },
		[2]rangeKernel{withBias(mulBlocked, true), withBias(mulSIMD, true)}, func(a *Dense) int { return a.rows }},
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

// untouched fails unless every value of rows, a part of a staleDense
// outside the range a kernel was given, is still 42.
func untouched(t *testing.T, label string, rows []float64) {
	t.Helper()
	for i, v := range rows {
		if v != 42 {
			t.Fatalf("%s: element %d outside the row range = %v", label, i, v)
		}
	}
}

// checkPublicKernels holds the public entry points of every matmul form
// against the naive loops, bit for bit. Every destination starts filled
// with 42: stale contents must not leak through.
func checkPublicKernels(t *testing.T, shapes []struct{ m, k, n int }, seed uint64) {
	for si, sh := range shapes {
		r := rng.New(seed + uint64(si))
		t.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(t *testing.T) {
			for _, op := range kernelOps {
				a, b := op.operands(r, sh.m, sh.k, sh.n)
				want := NewDense(sh.m, sh.n)
				op.oracle(want, a, b)
				got := staleDense(sh.m, sh.n)
				op.public(got, a, b)
				bitwiseEqual(t, op.name, got, want)
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
// for bit, whichever family the public entry points run. The ranges
// split after the first row, in the middle and before the last row, and
// each range alone must leave the other's rows as it found them, so a
// 4-row tile that reached across a range edge would show.
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
					rows := op.rowsOf(a)
					for _, split := range []int{1, rows / 2, rows - 1} {
						label := fmt.Sprintf("%s %dx%dx%d split %d", op.name, sh.m, sh.k, sh.n, split)
						head := staleDense(sh.m, sh.n)
						op.rows[fi](head, a, b, 0, split)
						untouched(t, label, head.Data()[split*sh.n:])
						got := staleDense(sh.m, sh.n)
						op.rows[fi](got, a, b, split, rows)
						untouched(t, label, got.Data()[:split*sh.n])
						op.rows[fi](got, a, b, 0, split)
						bitwiseEqual(t, label, got, want)
					}
				}
			}
		})
	}
}

// TestColSumsInto pins the column sums against a column-major loop.
func TestColSumsInto(t *testing.T) {
	r := rng.New(9)
	m := randDense(r, 11, 7)
	want := make([]float64, 7)
	for j := range want {
		for i := 0; i < 11; i++ {
			want[j] += m.At(i, j)
		}
	}
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
	"AdamCoeffs": true, "AdamStep": true, "Arena": true, "Axpy": true, "AxpyDot": true,
	"AxpyTo": true, "ColSumsInto": true, "CurvaturePair": true, "Dense": true, "Dot": true,
	"Exp": true, "FoldL2": true, "Kernel": true, "Logistic": true, "LogisticDeriv": true,
	"Mul": true, "MulBias": true, "MulT": true, "MulTWorkers": true, "MulWorkers": true,
	"NewDense": true, "NewDenseData": true, "Norm2": true, "ReLU": true, "ReLUDeriv": true,
	"SGDStep": true, "Scale": true, "SqDist": true, "TMul": true, "TMulWorkers": true,
	"Tanh": true, "TanhDeriv": true,
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
