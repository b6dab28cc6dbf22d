// Package enhancedbhpo_test holds the benchmark harness: one
// BenchmarkExperiment/<name> per table and figure of the paper's
// evaluation (regenerating the artifact at reduced scale each iteration)
// plus ablation benchmarks for the design choices called out in DESIGN.md
// and micro-benchmarks for the hot substrates. Run everything with:
//
//	go test -bench=. -benchmem
//
// The full-scale artifacts are produced by cmd/experiments; these
// benchmarks use experiments.FastSettings so the whole suite finishes in
// minutes while still exercising the identical code paths.
package enhancedbhpo_test

import (
	"context"
	"io"
	"sync/atomic"
	"testing"

	"enhancedbhpo/internal/cluster"
	"enhancedbhpo/internal/cv"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/experiments"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/scoring"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/stats"
)

// BenchmarkExperiment regenerates each artifact of the experiments
// registry once per iteration, rendering included: every table and figure
// of the paper's evaluation plus the extension experiments, on one
// simulated dataset. A new registry entry is benchmarked without an edit
// here.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.Name, func(b *testing.B) {
			s := experiments.FastSettings()
			s.Datasets = []string{"australian"}
			if e.Name == "stability" {
				// A spread across optimizer seeds needs more than one run.
				s.Seeds = 3
			}
			for i := 0; i < b.N; i++ {
				res, err := e.Run(s)
				if err != nil {
					b.Fatal(err)
				}
				res.Print(io.Discard)
			}
		})
	}
}

// --- Ablation benchmarks (design choices from DESIGN.md) ---

func benchData(b *testing.B, scale float64) *dataset.Dataset {
	b.Helper()
	spec, err := dataset.SpecByName("australian")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(scale)
	train, _, err := dataset.Synthesize(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	return train
}

// BenchmarkAblationRGroup measures how the balanced-clustering ratio
// r_group changes group-construction cost.
func BenchmarkAblationRGroup(b *testing.B) {
	train := benchData(b, 0.5)
	for _, rg := range []float64{0.2, 0.5, 0.8} {
		b.Run(rgName(rg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := grouping.Build(train, grouping.Options{V: 3, RGroup: rg}, rng.New(uint64(i)))
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func rgName(rg float64) string {
	switch rg {
	case 0.2:
		return "rgroup=0.2"
	case 0.5:
		return "rgroup=0.5"
	default:
		return "rgroup=0.8"
	}
}

// BenchmarkAblationAlphaBeta measures UCB-β scoring cost across weight
// settings (scoring is on the hot path of every halving decision).
func BenchmarkAblationAlphaBeta(b *testing.B) {
	scores := []float64{0.71, 0.74, 0.69, 0.77, 0.72}
	for _, cfg := range []struct {
		name    string
		alpha   float64
		betaMax float64
	}{
		{"alpha=0.1,beta=10", 0.1, 10},
		{"alpha=0.5,beta=2", 0.5, 2},
		{"alpha=1,beta=1", 1, 1},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			s := scoring.UCBScorer{Alpha: cfg.alpha, BetaMax: cfg.betaMax}
			for i := 0; i < b.N; i++ {
				_ = s.Score(scores, float64(i%100))
			}
		})
	}
}

// BenchmarkAblationFoldBuilders compares the cost of the three fold
// constructions at the same budget.
func BenchmarkAblationFoldBuilders(b *testing.B) {
	train := benchData(b, 1)
	groups, err := grouping.Build(train, grouping.Options{V: 2}, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	builders := []struct {
		name string
		bld  cv.Builder
	}{
		{"random", cv.RandomKFold{}},
		{"stratified", cv.StratifiedKFold{}},
		{"group(3+2)", cv.GroupFolds{KGen: 3, KSpe: 2}},
	}
	budget := train.Len() / 2
	for _, bb := range builders {
		b.Run(bb.name, func(b *testing.B) {
			r := rng.New(4)
			for i := 0; i < b.N; i++ {
				if _, err := bb.bld.Folds(train, groups, budget, 5, r.Split(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkKMeans measures the clustering substrate on a paper-scale
// feature matrix.
func BenchmarkKMeans(b *testing.B) {
	train := benchData(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(train.X, cluster.KMeansOptions{K: 3}, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPTrain measures one full MLP fit per solver.
func BenchmarkMLPTrain(b *testing.B) {
	train := benchData(b, 0.5)
	for _, solver := range []nn.Solver{nn.SGD, nn.Adam, nn.LBFGS} {
		b.Run(solver.String(), func(b *testing.B) {
			cfg := nn.DefaultConfig()
			cfg.Solver = solver
			cfg.MaxIter = 10
			cfg.LearningRateInit = 0.02
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if _, err := nn.Fit(train, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSHA measures one full Successive Halving run (vanilla vs
// enhanced) on a small space — the end-to-end unit the experiments repeat.
func BenchmarkSHA(b *testing.B) {
	train := benchData(b, 0.3)
	space, err := search.TableIIISpace(2)
	if err != nil {
		b.Fatal(err)
	}
	base := nn.DefaultConfig()
	base.MaxIter = 8
	base.LearningRateInit = 0.02
	run := func(b *testing.B, comps hpo.Components) {
		configs := space.Enumerate()[:8]
		for i := 0; i < b.N; i++ {
			ev := hpo.NewCVEvaluator(train, base, comps)
			if _, err := hpo.SuccessiveHalving(context.Background(), configs, ev, comps, hpo.SHAOptions{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("vanilla", func(b *testing.B) {
		run(b, hpo.VanillaComponents(5))
	})
	b.Run("enhanced", func(b *testing.B) {
		comps, err := hpo.EnhancedComponents(train, hpo.EnhancedOptions{}, rng.New(5))
		if err != nil {
			b.Fatal(err)
		}
		run(b, comps)
	})
}

// --- Compute-kernel benchmarks ---
//
// Each kernel benchmark runs the retained naive reference and every
// dispatchable kernel family — blocked always, simd where the CPU
// supports it — on identical dense data at MLP-typical shapes, so the
// ns/op ratios are the kernel speedups themselves. `make bench-smoke`
// runs them for one iteration so they cannot rot.

// dispatchKernels lists the kernel families Mul/MulT/TMul can dispatch to
// on this machine, each forced explicitly so the sub-benchmark names say
// what actually ran regardless of the default selection.
func dispatchKernels() []mat.KernelKind {
	ks := []mat.KernelKind{mat.Blocked}
	if mat.SIMDAvailable() {
		ks = append(ks, mat.SIMD)
	}
	return ks
}

// benchMat returns a rows×cols matrix of nonzero values: dense data is
// the honest baseline because the naive kernels skip zero multiplicands.
func benchMat(r *rng.RNG, rows, cols int) *mat.Dense {
	m := mat.NewDense(rows, cols)
	d := m.Data()
	for i := range d {
		d[i] = r.Norm() + 3 // shifted away from zero
	}
	return m
}

// matShapes are (batch × width × width) products as they occur inside
// nn.Fit on the Table III search space.
var matShapes = []struct {
	name    string
	m, k, n int
}{
	{"batch32_w50", 32, 50, 50},
	{"batch128_w100", 128, 100, 100},
	{"batch256_w200", 256, 200, 200},
	{"batch64_w512", 64, 512, 512},
}

// BenchmarkMatMul compares naive vs blocked vs simd dst = a*b (the
// forward-pass product).
func BenchmarkMatMul(b *testing.B) {
	for _, sh := range matShapes {
		r := rng.New(21)
		a := benchMat(r, sh.m, sh.k)
		bb := benchMat(r, sh.k, sh.n)
		dst := mat.NewDense(sh.m, sh.n)
		b.Run(sh.name+"/naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mat.NaiveMul(dst, a, bb)
			}
		})
		for _, k := range dispatchKernels() {
			b.Run(sh.name+"/"+k.String(), func(b *testing.B) {
				defer mat.SetKernel(mat.SetKernel(k))
				for i := 0; i < b.N; i++ {
					mat.Mul(dst, a, bb)
				}
			})
		}
	}
}

// BenchmarkMatMulT compares naive vs blocked vs simd dst = a*bᵀ (the
// backprop delta propagation).
func BenchmarkMatMulT(b *testing.B) {
	for _, sh := range matShapes {
		r := rng.New(22)
		a := benchMat(r, sh.m, sh.k)
		bt := benchMat(r, sh.n, sh.k)
		dst := mat.NewDense(sh.m, sh.n)
		b.Run(sh.name+"/naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mat.NaiveMulT(dst, a, bt)
			}
		})
		for _, k := range dispatchKernels() {
			b.Run(sh.name+"/"+k.String(), func(b *testing.B) {
				defer mat.SetKernel(mat.SetKernel(k))
				for i := 0; i < b.N; i++ {
					mat.MulT(dst, a, bt)
				}
			})
		}
	}
}

// BenchmarkMatTMul compares naive vs blocked vs simd dst = aᵀ*b (the
// weight gradient).
func BenchmarkMatTMul(b *testing.B) {
	for _, sh := range matShapes {
		r := rng.New(23)
		at := benchMat(r, sh.k, sh.m)
		bb := benchMat(r, sh.k, sh.n)
		dst := mat.NewDense(sh.m, sh.n)
		b.Run(sh.name+"/naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mat.NaiveTMul(dst, at, bb)
			}
		})
		for _, k := range dispatchKernels() {
			b.Run(sh.name+"/"+k.String(), func(b *testing.B) {
				defer mat.SetKernel(mat.SetKernel(k))
				for i := 0; i < b.N; i++ {
					mat.TMul(dst, at, bb)
				}
			})
		}
	}
}

// fitBenchConfig is the MLP the end-to-end Fit benchmarks train: wide
// enough (2×100 hidden) that the matmul kernels dominate, like the large
// end of the Table III space. Logistic activation keeps the activations
// dense — with ReLU roughly half the activations are exactly zero and
// the naive kernels' skip branch hides part of the kernel cost, so the
// measured ratio would understate the dense-path speedup.
func fitBenchConfig(solver nn.Solver) nn.Config {
	cfg := nn.DefaultConfig()
	cfg.Solver = solver
	cfg.HiddenLayerSizes = []int{100, 100}
	cfg.Activation = nn.Logistic
	cfg.BatchSize = 64
	cfg.MaxIter = 10
	cfg.LearningRateInit = 0.02
	return cfg
}

// benchFit runs nn.Fit under the given kernel family.
func benchFit(b *testing.B, train *dataset.Dataset, cfg nn.Config, kernel mat.KernelKind) {
	b.Helper()
	prev := mat.SetKernel(kernel)
	defer mat.SetKernel(prev)
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := nn.Fit(train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitStochastic measures a full adam fit under each kernel
// family — the end-to-end per-trial speedup every bandit optimizer
// inherits.
func BenchmarkFitStochastic(b *testing.B) {
	train := benchData(b, 0.5)
	cfg := fitBenchConfig(nn.Adam)
	b.Run("naive", func(b *testing.B) { benchFit(b, train, cfg, mat.NaiveKernel) })
	for _, k := range dispatchKernels() {
		b.Run(k.String(), func(b *testing.B) { benchFit(b, train, cfg, k) })
	}
}

// BenchmarkFitLBFGS is the full-batch counterpart of
// BenchmarkFitStochastic.
func BenchmarkFitLBFGS(b *testing.B) {
	train := benchData(b, 0.5)
	cfg := fitBenchConfig(nn.LBFGS)
	b.Run("naive", func(b *testing.B) { benchFit(b, train, cfg, mat.NaiveKernel) })
	for _, k := range dispatchKernels() {
		b.Run(k.String(), func(b *testing.B) { benchFit(b, train, cfg, k) })
	}
}

// BenchmarkEvaluate measures one steady-state cross-validated evaluation
// per solver — K folds of one architecture through CVEvaluator.Evaluate,
// the unit of work a pool slot runs. B/op is the number to watch: the
// evaluator's pooled workspace is warm after the first call, so what is
// left is what every later evaluation of that shape costs the collector.
// The lent1 variant has one idle core to lend folds to, the solo job on a
// two-slot pool: ns/op against the serial variant is what lending buys
// per evaluation (5 folds on 2 cores: 0.6 at best, 1 at -cpu 1), B/op
// what it costs.
func BenchmarkEvaluate(b *testing.B) {
	train := benchData(b, 0.5)
	base := nn.DefaultConfig()
	base.MaxIter = 8
	base.KernelWorkers = 1 // one evaluation, one core: what a pool slot runs
	serial := hpo.NewCVEvaluator(train, base, hpo.VanillaComponents(5))
	lent1 := hpo.NewCVEvaluator(train, base, hpo.VanillaComponents(5))
	var out atomic.Bool // the one core is lent
	giveBack := func() { out.Store(false) }
	lent1.Spare = func() func() {
		if !out.CompareAndSwap(false, true) {
			return nil
		}
		return giveBack
	}
	space, err := search.TableIIISpace(8)
	if err != nil {
		b.Fatal(err)
	}
	for _, solver := range []nn.Solver{nn.SGD, nn.Adam, nn.LBFGS} {
		// The first sampled configuration that uses this solver.
		var cfg search.Config
		for i := 0; ; i++ {
			cfg = space.SampleN(rng.New(uint64(400+i)), 1)[0]
			if nnCfg, cerr := search.ToNNConfig(cfg, base); cerr == nil && nnCfg.Solver == solver {
				break
			}
		}
		for _, v := range []struct {
			name string
			ev   *hpo.CVEvaluator
		}{{solver.String(), serial}, {solver.String() + "/lent1", lent1}} {
			b.Run(v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := v.ev.Evaluate(cfg, v.ev.FullBudget(), rng.New(7)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBetaEval measures the Eq. 2 weight function itself.
func BenchmarkBetaEval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = scoring.Beta(float64(i%101), 10)
	}
}

// BenchmarkBinomialProp1 measures the Proposition 1 convolution.
func BenchmarkBinomialProp1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = stats.TwoGroupPMF(20, 40, 0.5, 0.25)
	}
}
