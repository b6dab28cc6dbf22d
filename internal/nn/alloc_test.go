package nn

import (
	"fmt"
	"testing"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

// TestFitEpochZeroAlloc pins the zero-allocation contract of the
// stochastic training loop: after the first epoch has warmed the scratch
// arena (minibatch buffers, gradient vector, per-row-count
// forward/backward matrices), steady-state epochs allocate nothing — for
// both the full-batch and the n%batch tail path, under both solvers.
func TestFitEpochZeroAlloc(t *testing.T) {
	for _, solver := range []Solver{SGD, Adam} {
		t.Run(solver.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Solver = solver
			cfg.BatchSize = 8
			cfg.LearningRate = InvScaling // exercises the schedule math too
			cfg.KernelWorkers = 1
			r := rng.New(42)
			const n, features, classes = 37, 6, 3 // 37%8 != 0 → tail batch every epoch
			nw := newNetwork(nil, features, []int{10}, classes, ReLU, true, r.Split(1))
			nw.workers = cfg.KernelWorkers
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

			st := m.newSGDState(x, target, r.Split(2))
			st.runEpoch() // warm-up: builds full-batch and tail scratch
			if allocs := testing.AllocsPerRun(5, func() { st.runEpoch() }); allocs != 0 {
				t.Errorf("steady-state epoch allocated %v objects, want 0", allocs)
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
					cfg.KernelWorkers = 1
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
