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
// loss recorded and no gradient taken. wsq is Σw² of the initial
// parameters.
//
// Each gradient is reduced once. The first line search's descent
// gᵀ(−g) is −Σg² bit for bit (negation is exact and rounding to nearest
// is symmetric in sign), so it gives the first gradient's norm for the
// tolerance test; every later gradient's Σg² comes from the pass that
// builds the curvature pair and gives both that norm and a steepest
// descent's gᵀ(−g). The pair's pass also sums sᵀg′, the two-loop
// recursion's first product when the pair is kept, and the pass that
// starts a line search also finishes the direction and sums its descent
// product.
func (m *Model) fitLBFGS(x, target *mat.Dense, wsq float64) {
	const history = 10
	const c1 = 1e-4 // Armijo sufficient-decrease constant
	cfg := m.cfg
	nw := m.nw
	p := len(nw.params)
	ws := nw.ws
	grad := ws.FloatsUnzeroed(p)
	loss := nw.lossGrad(x, target, cfg.Alpha, wsq, grad)
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
	dir := ws.FloatsUnzeroed(p)
	base := ws.FloatsUnzeroed(p)
	newGrad := ws.FloatsUnzeroed(p)
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
		return ws.FloatsUnzeroed(p)
	}

	// gg is Σg² of grad: the first gradient's from the first line
	// search's descent, every later one's from the pass that builds the
	// curvature pair. sg is sᵀgrad of the newest pair, valid while fresh:
	// when that pair was admitted with grad.
	var gg, sg float64
	fresh := false
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if iter > 0 && math.Sqrt(gg) < cfg.Tol {
			break
		}
		// Two-loop recursion: dir = -H·grad. Each Axpy runs fused with
		// the Dot that reads its result; the last one's negation and the
		// descent product gradᵀdir run in the pass that starts the line
		// search.
		k := len(sList)
		if k == 0 {
			mat.ScaleTo(dir, -1, grad)
		} else {
			copy(dir, grad)
			dot := sg
			if !fresh {
				dot = mat.Dot(sList[k-1], dir)
			}
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
				beta := float64(rhoList[i] * dot)
				dot = mat.AxpyDot(alphaBuf[i]-beta, sList[i], dir, false, yList[i+1])
			}
			beta := float64(rhoList[k-1] * dot)
			mat.Axpy(alphaBuf[k-1]-beta, sList[k-1], dir)
		}
		// Backtracking Armijo line search, on the loss alone: a trial's
		// gradient is needed only if the trial is accepted. The first
		// trial, at step 1, is written by the pass that copies the
		// accepted point into base and finishes dir (startSearch); each
		// later one from base by the pass that also sums its weights'
		// squares for the loss, so a rejected trial needs no copy back.
		step := 1.0
		descent, wsq := nw.startSearch(base, dir, k > 0, grad)
		if iter == 0 {
			// dir is −grad, so the descent is −Σg² bit for bit.
			gg = -descent
			if math.Sqrt(gg) < cfg.Tol {
				copy(nw.params, base)
				break
			}
		}
		if descent >= 0 {
			// Not a descent direction (numerical breakdown); restart with
			// steepest descent.
			freelist = append(append(freelist, sList...), yList...)
			sList, yList, rhoList = sList[:0], yList[:0], rhoList[:0]
			mat.ScaleTo(dir, -1, grad)
			descent = -gg
			if descent == 0 {
				copy(nw.params, base)
				break
			}
			wsq = nw.trial(step, dir, base)
		}
		var newLoss float64
		accepted := false
		for ls := 0; ls < 30; ls++ {
			if ls > 0 {
				wsq = nw.trial(step, dir, base)
			}
			newLoss = nw.loss(x, target, cfg.Alpha, wsq)
			if newLoss <= loss+float64(c1*step*descent) {
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
		// Curvature pair update; the same pass sums sᵀy, yᵀy, the new
		// gradient's Σg² and sᵀg.
		s := newPair()
		y := newPair()
		var sy, yy float64
		sy, yy, gg, sg = mat.CurvaturePair(s, y, step, dir, newGrad, grad)
		fresh = sy > 1e-10
		if fresh {
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

// startSearch starts a line search from the current parameters with
// mat.StepFrom, block by block: it copies them into base, negates dir
// where neg is set, writes the trial point at step 1, and returns the
// descent product gradᵀdir, one chain through every block in index
// order, and the trial's Σw², threaded through the weight blocks as
// stepBlocks threads it.
func (nw *network) startSearch(base, dir []float64, neg bool, grad []float64) (descent, wsq float64) {
	for l := 0; l < nw.layers(); l++ {
		lo, mid, hi := nw.wOff[l], nw.bOff[l], nw.bOff[l]+nw.dims[l+1]
		descent, wsq = mat.StepFrom(nw.params[lo:mid], base[lo:mid], dir[lo:mid], 1, neg, grad[lo:mid], descent, wsq)
		descent, _ = mat.StepFrom(nw.params[mid:hi], base[mid:hi], dir[mid:hi], 1, neg, grad[mid:hi], descent, 0)
	}
	return descent, wsq
}

// trial writes the trial point base + step·dir into the parameters and
// returns its Σw².
func (nw *network) trial(step float64, dir, base []float64) float64 {
	return nw.stepBlocks(func(lo, hi int, sq float64) float64 {
		return mat.AxpyTo(nw.params[lo:hi], step, dir[lo:hi], base[lo:hi], sq)
	})
}
