package nn

import (
	"math"

	"enhancedbhpo/internal/mat"
)

// fitLBFGS optimizes the network with limited-memory BFGS over the full
// batch: two-loop recursion with history m=10 and Armijo backtracking line
// search. This mirrors what the "lbfgs" solver choice means in the Table III
// search space — a deterministic full-batch quasi-Newton method whose cost
// profile differs sharply from sgd/adam, which is exactly what makes the
// solver hyperparameter worth searching over.
//
// Only a point the next iteration steps from is backpropagated: the
// line search evaluates trials on the loss alone, and the point accepted
// on the last iteration or at the tolerance exit ends the fit with its
// loss recorded and no gradient taken.
func (m *Model) fitLBFGS(x, target *mat.Dense) {
	const history = 10
	const c1 = 1e-4 // Armijo sufficient-decrease constant
	cfg := m.cfg
	nw := m.nw
	p := len(nw.params)
	ws := nw.ws
	grad := ws.Floats(p)
	loss := nw.lossGrad(x, target, cfg.Alpha, nw.weightSq(), grad)
	m.LossCurve = ws.Floats(cfg.MaxIter + 1)[:0]
	m.LossCurve = append(m.LossCurve, loss)

	// The history window holds at most history pairs between iterations
	// and one more while a new pair is being admitted. lastSY and lastYY
	// are the newest admitted pair's sᵀy and yᵀy, the scale γ is taken
	// from.
	sList := make([][]float64, 0, history+1)
	yList := make([][]float64, 0, history+1)
	rhoList := ws.Floats(history + 1)[:0]
	var lastSY, lastYY float64
	dir := ws.Floats(p)
	base := ws.Floats(p)
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

	// gnorm is ‖grad‖: here from the first gradient, later from the pass
	// that builds the curvature pair.
	gnorm := mat.Norm2(grad)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if gnorm < cfg.Tol {
			break
		}
		// Two-loop recursion: dir = -H·grad, and descent = gradᵀdir.
		// Each Axpy runs fused with the Dot that reads its result, the
		// last one with the negation and the descent product too.
		copy(dir, grad)
		k := len(sList)
		var descent float64
		if k == 0 {
			mat.Scale(-1, dir)
			descent = mat.Dot(grad, dir)
		} else {
			dot := mat.Dot(sList[k-1], dir)
			for i := k - 1; i > 0; i-- {
				alphaBuf[i] = rhoList[i] * dot
				dot = mat.AxpyDot(-alphaBuf[i], yList[i], dir, false, sList[i-1])
			}
			alphaBuf[0] = rhoList[0] * dot
			mat.Axpy(-alphaBuf[0], yList[0], dir)
			// Scale by the standard gamma = sᵀy / yᵀy of the newest pair.
			gamma := lastSY / lastYY
			if gamma > 0 && !math.IsInf(gamma, 0) && !math.IsNaN(gamma) {
				mat.Scale(gamma, dir)
			}
			dot = mat.Dot(yList[0], dir)
			for i := 0; i < k-1; i++ {
				beta := rhoList[i] * dot
				dot = mat.AxpyDot(alphaBuf[i]-beta, sList[i], dir, false, yList[i+1])
			}
			beta := rhoList[k-1] * dot
			descent = mat.AxpyDot(alphaBuf[k-1]-beta, sList[k-1], dir, true, grad)
		}
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
		// Backtracking Armijo line search, on the loss alone: a trial's
		// gradient is needed only if the trial is accepted. Each trial
		// point is written from base, the accepted point, by the pass
		// that also sums its weights' squares for the loss, so a
		// rejected trial needs no copy back.
		copy(base, nw.params)
		step := 1.0
		var newLoss float64
		accepted := false
		for ls := 0; ls < 30; ls++ {
			wsq := nw.stepBlocks(func(lo, hi int, sq float64) float64 {
				return mat.AxpyTo(nw.params[lo:hi], step, dir[lo:hi], base[lo:hi], sq)
			})
			newLoss = nw.loss(x, target, cfg.Alpha, wsq)
			if newLoss <= loss+c1*step*descent {
				accepted = true
				break
			}
			step *= 0.5
		}
		if !accepted {
			copy(nw.params, base)
			break
		}
		converged := math.Abs(loss-newLoss) < cfg.Tol*math.Max(1, math.Abs(loss))
		loss = newLoss
		m.LossCurve = append(m.LossCurve, loss)
		m.Epochs = iter + 1
		if converged || iter == cfg.MaxIter-1 {
			// No later step reads this point's gradient or curvature pair.
			break
		}
		nw.backprop(x, target, cfg.Alpha, newGrad)
		// Curvature pair update; the same pass sums sᵀy, yᵀy and the new
		// gradient's squared norm.
		s := newPair()
		y := newPair()
		sy, yy, gg := mat.CurvaturePair(s, y, step, dir, newGrad, grad)
		gnorm = math.Sqrt(gg)
		if sy > 1e-10 {
			sList = append(sList, s)
			yList = append(yList, y)
			rhoList = append(rhoList, 1/sy)
			lastSY, lastYY = sy, yy
			if len(sList) > history {
				// Shift down in place so the window keeps its backing arrays.
				freelist = append(freelist, sList[0], yList[0])
				sList = sList[:copy(sList, sList[1:])]
				yList = yList[:copy(yList, yList[1:])]
				rhoList = rhoList[:copy(rhoList, rhoList[1:])]
			}
		} else {
			freelist = append(freelist, s, y)
		}
		grad, newGrad = newGrad, grad
	}
}
