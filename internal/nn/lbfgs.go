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
func (m *Model) fitLBFGS(x, target *mat.Dense) {
	const history = 10
	const c1 = 1e-4 // Armijo sufficient-decrease constant
	cfg := m.cfg
	p := len(m.nw.params)
	ws := m.nw.ws
	grad := ws.Floats(p)
	loss := m.nw.lossGrad(x, target, cfg.Alpha, grad)
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
			newLoss = m.nw.lossGrad(x, target, cfg.Alpha, newGrad)
			if newLoss <= loss+c1*step*descent {
				accepted = true
				break
			}
			copy(m.nw.params, trial)
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
}
