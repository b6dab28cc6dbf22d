package hpo

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// tinyRegression is tinyDataset's regression sibling: a noisy linear
// target over three features.
func tinyRegression(n int, seed uint64) *dataset.Dataset {
	r := rng.New(seed)
	x := mat.NewDense(n, 3)
	target := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b, c := r.Norm(), r.Norm(), r.Norm()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		x.Set(i, 2, c)
		target[i] = 0.8*a - 0.5*b + 0.1*c + 0.05*r.Norm()
	}
	return &dataset.Dataset{Name: "tiny-reg", Kind: dataset.Regression, X: x, Target: target}
}

// solverConfig is a full Table III configuration with the given hidden
// shape (index into the table's six shapes), solver and early stopping.
func solverConfig(t testing.TB, hidden int, solver nn.Solver, earlyStop bool) search.Config {
	t.Helper()
	space, err := search.TableIIISpace(8)
	if err != nil {
		t.Fatal(err)
	}
	solverIdx := map[nn.Solver]int{nn.LBFGS: 0, nn.SGD: 1, nn.Adam: 2}[solver]
	stopIdx := 1
	if earlyStop {
		stopIdx = 0
	}
	// tanh, lr 0.05, batch 32, invscaling, momentum 0.8.
	return space.NewConfig([]int{hidden, 1, solverIdx, 1, 0, 1, 1, stopIdx})
}

// referenceEvaluate is Evaluate as it was before the workspace: every
// fold selected, trained and scored on the heap through the public API.
func referenceEvaluate(e *CVEvaluator, cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	folds, err := e.Folds.Folds(e.Train, e.Groups, budget, e.K, r.Split(0xf01d))
	if err != nil {
		return nil, err
	}
	nnCfg, err := search.ToNNConfig(cfg, e.Base)
	if err != nil {
		return nil, err
	}
	var scores []float64
	for fi, fold := range folds {
		if len(fold.Train) < 2 || len(fold.Val) == 0 {
			continue
		}
		foldCfg := nnCfg
		foldCfg.Seed = r.Split(uint64(fi) + 1).Uint64()
		model, err := nn.Fit(e.Train.Select(fold.Train), foldCfg)
		if err != nil {
			return nil, err
		}
		scores = append(scores, e.ScoreModel(model, e.Train.Select(fold.Val)))
	}
	return scores, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEvaluateMatchesHeapFitBitwise: fold scores out of the pooled
// workspace equal fold scores from plain Select + nn.Fit, bit for bit.
// Each evaluator sees a small, a large and again a small architecture at
// shrinking and growing budgets, so a workspace that leaked one fold's
// bytes into the next would show.
func TestEvaluateMatchesHeapFitBitwise(t *testing.T) {
	base := nn.DefaultConfig()
	base.MaxIter = 6
	for _, train := range []*dataset.Dataset{tinyDataset(160, 3), tinyRegression(160, 4)} {
		for _, solver := range []nn.Solver{nn.SGD, nn.Adam, nn.LBFGS} {
			ev := NewCVEvaluator(train, base, VanillaComponents(3))
			for seed := uint64(1); seed <= 3; seed++ {
				for step, shape := range []struct{ hidden, budget int }{{0, 60}, {5, 160}, {0, 45}} {
					cfg := solverConfig(t, shape.hidden, solver, seed == 2)
					got, err := ev.Evaluate(cfg, shape.budget, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
					want, err := referenceEvaluate(ev, cfg, shape.budget, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got, want) {
						t.Errorf("%s %s seed %d step %d: workspace %v, heap %v", train.Kind, solver, seed, step, got, want)
					}
				}
			}
		}
	}
}

// maxSteadyAllocs bounds the objects a warm Evaluate may allocate at
// K = 3: the fold index lists, and per fold a handful of small structs
// (two datasets, model, network, solver state, RNG streams, scratch
// headers). It does not grow with rows, features or parameters — those
// live in the workspace. The same call allocates about 1300 objects
// without one.
const maxSteadyAllocs = 160

// TestEvaluateSteadyStateAllocs pins what the workspace buys: after one
// warm-up call, an evaluation of the same (architecture, budget)
// allocates at most maxSteadyAllocs objects, and under an eighth of the
// bytes of the cold call (what is left is the fold index lists, a few
// ints per row).
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	// sync.Pool caches per P; stay on one so the warm workspace is the
	// one this goroutine gets back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := nn.DefaultConfig()
	base.MaxIter = 6
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, rows := range []int{300, 1200} {
		train := tinyDataset(rows, 9)
		for _, solver := range []nn.Solver{nn.SGD, nn.Adam, nn.LBFGS} {
			t.Run(fmt.Sprintf("%s/%d", solver, rows), func(t *testing.T) {
				ev := NewCVEvaluator(train, base, VanillaComponents(3))
				cfg := solverConfig(t, 3, solver, false)
				eval := func() {
					if _, err := ev.Evaluate(cfg, rows, rng.New(5)); err != nil {
						t.Fatal(err)
					}
				}
				cold := allocated(eval) // also the warm-up: sizes the workspace
				if allocs := testing.AllocsPerRun(5, eval); allocs > maxSteadyAllocs {
					t.Errorf("warm Evaluate allocated %v objects, want <= %d", allocs, maxSteadyAllocs)
				}
				if warm := allocated(eval); warm > cold/8 {
					t.Errorf("warm Evaluate allocated %d bytes, cold %d: want under an eighth", warm, cold)
				}
			})
		}
	}
}

// TestEvaluateConcurrent: four goroutines share one CVEvaluator, each on
// its own pooled workspace, and all get the single-goroutine scores.
func TestEvaluateConcurrent(t *testing.T) {
	base := nn.DefaultConfig()
	base.MaxIter = 5
	ev := NewCVEvaluator(tinyDataset(150, 2), base, VanillaComponents(3))
	cfgs := []search.Config{
		solverConfig(t, 0, nn.SGD, true),
		solverConfig(t, 5, nn.Adam, false),
		solverConfig(t, 2, nn.LBFGS, false),
	}
	want := make([][]float64, len(cfgs))
	for i, cfg := range cfgs {
		s, err := ev.Evaluate(cfg, 100+10*i, rng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 6; n++ {
				i := (g + n) % len(cfgs)
				got, err := ev.Evaluate(cfgs[i], 100+10*i, rng.New(uint64(i)))
				if err != nil {
					t.Error(err)
					return
				}
				if !sameBits(got, want[i]) {
					t.Errorf("goroutine %d: config %d scored %v, want %v", g, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
