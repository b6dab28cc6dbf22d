package nn

import (
	"fmt"
	"math"
	"testing"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

// TestLBFGSMatchesFullGradientBitwise holds fitLBFGS, which
// backpropagates only the points it steps from, against
// fitLBFGSOracle, which backpropagates every line-search trial and the
// final point: parameters, loss curve and epoch count are bitwise-equal
// for both tasks, every activation, iteration caps that end on the last
// iteration (1, 2, 5) and one that reaches the tolerance exit (200),
// three seeds, on the heap and in a reused arena.
func TestLBFGSMatchesFullGradientBitwise(t *testing.T) {
	ws, oracleWS := new(mat.Arena), new(mat.Arena)
	tolExits := 0
	for _, train := range []*dataset.Dataset{easyClassification(60, 1), easyRegression(60, 2)} {
		for _, act := range []Activation{Logistic, Tanh, ReLU} {
			for _, maxIter := range []int{1, 2, 5, 200} {
				for seed := uint64(1); seed <= 3; seed++ {
					cfg := DefaultConfig()
					cfg.Solver = LBFGS
					cfg.Activation = act
					cfg.HiddenLayerSizes = []int{7}
					cfg.MaxIter = maxIter
					cfg.EarlyStopping = seed == 2
					cfg.Seed = seed
					label := fmt.Sprintf("%s %s max_iter %d seed %d", train.Kind, act, maxIter, seed)

					got, err := Fit(train, cfg)
					if err != nil {
						t.Fatal(err)
					}
					assertModelBitwise(t, label+" heap", got, lbfgsOracle(nil, train, cfg))

					ws.Reset()
					oracleWS.Reset()
					got, err = FitIn(ws, train, cfg)
					if err != nil {
						t.Fatal(err)
					}
					assertModelBitwise(t, label+" arena", got, lbfgsOracle(oracleWS, train, cfg))
					if got.Epochs < maxIter {
						tolExits++
					}
				}
			}
		}
	}
	if tolExits == 0 {
		t.Fatal("no case stopped before its iteration cap: the tolerance exit went untested")
	}
}

// TestLBFGSToleranceExitAtStart sets a tolerance no first gradient's
// norm reaches under: the fit must stop before its first step with the
// drawn parameters and the first loss alone, as the oracle does, though
// the pass that starts the line search has written a trial point by
// the time the norm is known.
func TestLBFGSToleranceExitAtStart(t *testing.T) {
	for _, train := range []*dataset.Dataset{easyClassification(60, 1), easyRegression(60, 2)} {
		cfg := DefaultConfig()
		cfg.Solver = LBFGS
		cfg.HiddenLayerSizes = []int{7}
		cfg.Tol = 1e6
		got, err := Fit(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := lbfgsOracle(nil, train, cfg)
		assertModelBitwise(t, fmt.Sprintf("%s tol 1e6", train.Kind), got, want)
		if got.Epochs != 0 || len(got.LossCurve) != 1 {
			t.Fatalf("%s: %d epochs and %d losses, want the first loss alone", train.Kind, got.Epochs, len(got.LossCurve))
		}
	}
}

// lbfgsOracle is FitIn with the solver swapped for fitLBFGSOracle: the
// same network, initialization and validation carve-out.
func lbfgsOracle(ws *mat.Arena, train *dataset.Dataset, cfg Config) *Model {
	r := rng.New(cfg.Seed ^ 0xabcdef1234)
	softmax := train.Kind == dataset.Classification
	outputs := 1
	if softmax {
		outputs = train.NumClasses
	}
	nw := newNetwork(ws, train.Features(), cfg.HiddenLayerSizes, outputs, cfg.Activation, softmax, r.Split(1))
	m := &Model{cfg: cfg, nw: nw, kind: train.Kind, numClasses: train.NumClasses}
	fitSet := train
	if cfg.EarlyStopping && train.Len() >= 10 {
		fitSet, _ = splitValidation(ws, train, cfg.ValidationFraction, r.Split(2))
	}
	m.fitLBFGSOracle(fitSet.X, targetMatrix(ws, fitSet))
	return m
}

// fitLBFGSOracle is fitLBFGS as it was before the line search ran on
// the loss alone: every trial and the final point are backpropagated,
// and every loss walks the weights for its L2 term. It returns how many
// Armijo trials and curvature pairs it rejected.
func (m *Model) fitLBFGSOracle(x, target *mat.Dense) (armijoRejected, pairsRejected int) {
	const history = 10
	const c1 = 1e-4 // Armijo sufficient-decrease constant
	cfg := m.cfg
	p := len(m.nw.params)
	ws := m.nw.ws
	grad := ws.Floats(p)
	loss := m.nw.lossGrad(x, target, cfg.Alpha, m.nw.weightSq(), grad)
	m.LossCurve = ws.Floats(cfg.MaxIter + 1)[:0]
	m.LossCurve = append(m.LossCurve, loss)

	// The history window holds at most history pairs between iterations
	// and one more while a new pair is being admitted.
	sList := make([][]float64, 0, history+1)
	yList := make([][]float64, 0, history+1)
	rhoList := ws.Floats(history + 1)[:0]
	dir := ws.Floats(p)
	trial := ws.Floats(p)
	newGrad := ws.Floats(p)
	alphaBuf := ws.Floats(history)
	// freelist recycles curvature-pair buffers evicted from the history
	// window (or rejected by the sᵀy check), capping total allocation at
	// history+1 pairs no matter how many iterations run.
	freelist := make([][]float64, 0, 2*(history+1))
	newPair := func() []float64 {
		if k := len(freelist); k > 0 {
			b := freelist[k-1]
			freelist = freelist[:k-1]
			return b
		}
		return ws.Floats(p)
	}

	for iter := 0; iter < cfg.MaxIter; iter++ {
		gnorm := mat.Norm2(grad)
		if gnorm < cfg.Tol {
			break
		}
		// Two-loop recursion: dir = -H·grad.
		copy(dir, grad)
		k := len(sList)
		for i := k - 1; i >= 0; i-- {
			alphaBuf[i] = rhoList[i] * mat.Dot(sList[i], dir)
			mat.Axpy(-alphaBuf[i], yList[i], dir)
		}
		if k > 0 {
			// Scale by the standard gamma = sᵀy / yᵀy.
			last := k - 1
			gamma := mat.Dot(sList[last], yList[last]) / mat.Dot(yList[last], yList[last])
			if gamma > 0 && !math.IsInf(gamma, 0) && !math.IsNaN(gamma) {
				mat.Scale(gamma, dir)
			}
		}
		for i := 0; i < k; i++ {
			beta := rhoList[i] * mat.Dot(yList[i], dir)
			mat.Axpy(alphaBuf[i]-beta, sList[i], dir)
		}
		mat.Scale(-1, dir)
		descent := mat.Dot(grad, dir)
		if descent >= 0 {
			// Not a descent direction (numerical breakdown); restart with
			// steepest descent.
			freelist = append(append(freelist, sList...), yList...)
			sList, yList, rhoList = sList[:0], yList[:0], rhoList[:0]
			copy(dir, grad)
			mat.Scale(-1, dir)
			descent = -mat.Dot(grad, grad)
			if descent == 0 {
				break
			}
		}
		// Backtracking Armijo line search.
		step := 1.0
		var newLoss float64
		accepted := false
		for ls := 0; ls < 30; ls++ {
			copy(trial, m.nw.params)
			mat.Axpy(step, dir, m.nw.params)
			newLoss = m.nw.lossGrad(x, target, cfg.Alpha, m.nw.weightSq(), newGrad)
			if newLoss <= loss+c1*step*descent {
				accepted = true
				break
			}
			copy(m.nw.params, trial)
			armijoRejected++
			step *= 0.5
		}
		if !accepted {
			break
		}
		// Curvature pair update.
		s := newPair()
		y := newPair()
		for i := range s {
			s[i] = step * dir[i]
			y[i] = newGrad[i] - grad[i]
		}
		sy := mat.Dot(s, y)
		if sy > 1e-10 {
			sList = append(sList, s)
			yList = append(yList, y)
			rhoList = append(rhoList, 1/sy)
			if len(sList) > history {
				// Shift down in place so the window keeps its backing arrays.
				freelist = append(freelist, sList[0], yList[0])
				sList = sList[:copy(sList, sList[1:])]
				yList = yList[:copy(yList, yList[1:])]
				rhoList = rhoList[:copy(rhoList, rhoList[1:])]
			}
		} else {
			freelist = append(freelist, s, y)
			pairsRejected++
		}
		if math.Abs(loss-newLoss) < cfg.Tol*math.Max(1, math.Abs(loss)) {
			loss = newLoss
			copy(grad, newGrad)
			m.LossCurve = append(m.LossCurve, loss)
			m.Epochs = iter + 1
			break
		}
		loss = newLoss
		copy(grad, newGrad)
		m.LossCurve = append(m.LossCurve, loss)
		m.Epochs = iter + 1
	}
	return armijoRejected, pairsRejected
}
