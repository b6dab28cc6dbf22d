package nn

import (
	"fmt"
	"testing"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

// TestFitEpochZeroAlloc pins the zero-allocation contract of the
// training loops: after the first epoch has warmed the scratch arena
// (minibatch buffers, gradient vector, per-row-count forward/backward
// matrices), steady-state epochs allocate nothing — for both the
// full-batch and the n%batch tail path, under both stochastic solvers,
// and for adam on the SIMD family, whose step hands the assembly a
// pointer to its coefficients (skipped where the CPU or build has no
// AVX2 kernels). An L-BFGS iteration's loss and backprop calls allocate
// nothing once warm either. ReLU is the base case; the logistic and tanh
// rows train through the exp-based activation kernels, the softmax head
// through mat.Exp in every row.
func TestFitEpochZeroAlloc(t *testing.T) {
	const n, features, classes = 37, 6, 3 // 37%8 != 0 → tail batch every epoch
	setup := func(solver Solver, act Activation) (*Model, *mat.Dense, *mat.Dense, *rng.RNG) {
		cfg := DefaultConfig()
		cfg.Solver = solver
		cfg.Activation = act
		cfg.BatchSize = 8
		cfg.LearningRate = InvScaling // exercises the schedule math too
		r := rng.New(42)
		nw := newNetwork(nil, features, []int{10}, classes, act, true, r.Split(1))
		m := &Model{cfg: cfg, nw: nw, kind: dataset.Classification, numClasses: classes}

		x := mat.NewDense(n, features)
		xd := x.Data()
		for i := range xd {
			xd[i] = r.Norm()
		}
		target := mat.NewDense(n, classes)
		for i := 0; i < n; i++ {
			target.Set(i, int(r.Uint64()%classes), 1)
		}
		return m, x, target, r
	}
	for _, c := range []struct {
		name   string
		solver Solver
		act    Activation
		simd   bool // needs the SIMD family
	}{
		{"sgd", SGD, ReLU, false},
		{"sgd/logistic", SGD, Logistic, false},
		{"sgd/tanh", SGD, Tanh, false},
		{"adam", Adam, ReLU, false},
		{"adam/logistic", Adam, Logistic, false},
		{"adam/tanh", Adam, Tanh, false},
		{"adam/simd", Adam, ReLU, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.simd && mat.Kernel() != "simd" {
				t.Skip("this CPU or build has no AVX2 kernels")
			}
			m, x, target, r := setup(c.solver, c.act)
			st := m.newSGDState(x, target, r.Split(2))
			st.runEpoch() // warm-up: builds full-batch and tail scratch
			if allocs := testing.AllocsPerRun(5, func() { st.runEpoch() }); allocs != 0 {
				t.Errorf("steady-state epoch allocated %v objects, want 0", allocs)
			}
		})
	}
	for _, c := range []struct {
		name string
		act  Activation
	}{{"lbfgs", ReLU}, {"lbfgs/logistic", Logistic}, {"lbfgs/tanh", Tanh}} {
		t.Run(c.name, func(t *testing.T) {
			m, x, target, _ := setup(LBFGS, c.act)
			grad := make([]float64, len(m.nw.params))
			m.nw.lossGrad(x, target, m.cfg.Alpha, m.nw.weightSq(), grad) // warm-up: builds the full-batch scratch
			iteration := func() {
				m.nw.loss(x, target, m.cfg.Alpha, 0) // a line-search trial
				m.nw.backprop(x, target, m.cfg.Alpha, grad)
			}
			if allocs := testing.AllocsPerRun(5, iteration); allocs != 0 {
				t.Errorf("warm loss and backprop allocated %v objects, want 0", allocs)
			}
		})
	}
}

// TestFitInMatchesFitBitwise trains small, large and again small models
// of every solver and task through one arena, resetting it in between,
// and holds each against a heap Fit of the same input: parameters, loss
// curve, epoch count and score are bitwise identical, so neither the
// arena nor what an earlier model left in it reaches the arithmetic.
func TestFitInMatchesFitBitwise(t *testing.T) {
	ws := new(mat.Arena)
	for _, train := range []*dataset.Dataset{easyClassification(120, 1), easyRegression(120, 2)} {
		for _, solver := range []Solver{SGD, Adam, LBFGS} {
			for seed := uint64(1); seed <= 3; seed++ {
				for step, hidden := range [][]int{{6}, {24, 16}, {6}} {
					cfg := DefaultConfig()
					cfg.Solver = solver
					cfg.HiddenLayerSizes = hidden
					cfg.MaxIter = 12
					cfg.BatchSize = 32 // 120 % 32 != 0: the tail batch is exercised
					cfg.EarlyStopping = seed == 2
					cfg.Seed = seed
					ws.Reset()
					got, err := FitIn(ws, train, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := Fit(train, cfg)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s %s seed %d step %d", train.Kind, solver, seed, step)
					assertModelBitwise(t, label, got, want)
					if g, w := got.Score(train), want.Score(train); g != w {
						t.Fatalf("%s: score %x, want %x", label, g, w)
					}
				}
			}
		}
	}
}
