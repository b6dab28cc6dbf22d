package nn

import (
	"fmt"
	"math"

	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

// network holds the MLP weights as one flat parameter vector so the three
// solvers (notably L-BFGS) can treat optimization generically. Layer l maps
// dims[l] inputs to dims[l+1] outputs through a weight block and a bias
// block carved out of params.
type network struct {
	dims   []int // layer widths: input, hidden..., output
	params []float64
	// offsets[l] is the start of layer l's weight block; biases follow the
	// weights of each layer.
	wOff, bOff []int
	activation Activation
	// softmaxOut selects a softmax head (classification) vs identity
	// (regression).
	softmaxOut bool

	// ws is where the parameter vector and every buffer below come from;
	// nil is the heap. A network built on an arena — and the Model around
	// it — is valid only until that arena is reset.
	ws *mat.Arena
	// Reused buffers (lazily built — Load constructs networks without
	// newNetwork): weight views, weight-gradient buffers, transposed-
	// weight buffers, and per-row-count forward/backward scratch. Their
	// presence makes forwardPass and lossGrad allocation-free in steady
	// state, but also means a network must not be used from multiple
	// goroutines concurrently.
	wMats   []*mat.Dense
	gwBufs  []*mat.Dense
	wtBufs  []*mat.Dense
	scratch []*batchScratch
}

func newNetwork(ws *mat.Arena, inputs int, hidden []int, outputs int, act Activation, softmax bool, r *rng.RNG) *network {
	layers := len(hidden) + 1
	dims := ws.Ints(layers + 1)
	dims[0] = inputs
	copy(dims[1:], hidden)
	dims[layers] = outputs
	total := 0
	wOff := ws.Ints(layers)
	bOff := ws.Ints(layers)
	for l := 0; l < layers; l++ {
		wOff[l] = total
		total += dims[l] * dims[l+1]
		bOff[l] = total
		total += dims[l+1]
	}
	nw := &network{
		dims:       dims,
		params:     ws.Floats(total),
		wOff:       wOff,
		bOff:       bOff,
		activation: act,
		softmaxOut: softmax,
		ws:         ws,
	}
	nw.glorotInit(r)
	return nw
}

// glorotInit fills the weights with the Glorot/Xavier uniform scheme used by
// scikit-learn's MLP (factor 6 for tanh/relu, 2 for logistic).
func (nw *network) glorotInit(r *rng.RNG) {
	factor := 6.0
	if nw.activation == Logistic {
		factor = 2.0
	}
	for l := 0; l < nw.layers(); l++ {
		fanIn, fanOut := nw.dims[l], nw.dims[l+1]
		bound := math.Sqrt(factor / float64(fanIn+fanOut))
		r.FillUniform(nw.weights(l), bound)
		r.FillUniform(nw.biases(l), bound)
	}
}

func (nw *network) layers() int { return len(nw.dims) - 1 }

// weights returns layer l's weight block viewed as fanIn×fanOut row-major.
func (nw *network) weights(l int) []float64 {
	return nw.params[nw.wOff[l] : nw.wOff[l]+nw.dims[l]*nw.dims[l+1]]
}

func (nw *network) biases(l int) []float64 {
	return nw.params[nw.bOff[l] : nw.bOff[l]+nw.dims[l+1]]
}

// weightSq returns Σw² over the weight blocks — layer 0 to L−1, each in
// index order, one sequential chain, biases skipped — the sum the L2
// penalty of loss is taken from. Only a fit's first loss needs it: every
// later one gets the sum from the step that wrote the weights
// (stepBlocks).
func (nw *network) weightSq() float64 {
	var wsq float64
	for l := 0; l < nw.layers(); l++ {
		for _, wv := range nw.weights(l) {
			wsq += float64(wv * wv)
		}
	}
	return wsq
}

// stepBlocks runs a step kernel over the parameters, block by block:
// step(lo, hi, sq) updates params[lo:hi] and returns sq plus the sum of
// squares of the values it wrote. The weight blocks thread one sum
// through them in weightSq's order, which stepBlocks returns; the bias
// blocks' sums are dropped.
func (nw *network) stepBlocks(step func(lo, hi int, sq float64) float64) float64 {
	var wsq float64
	for l := 0; l < nw.layers(); l++ {
		wsq = step(nw.wOff[l], nw.bOff[l], wsq)
		step(nw.bOff[l], nw.bOff[l]+nw.dims[l+1], 0)
	}
	return wsq
}

// forwardPass computes activations for a batch. Returns the per-layer
// post-activation matrices (acts[0] is the input), so backprop can reuse
// them. The returned slice is scratch owned by the network: it is valid
// until the next forwardPass with the same row count.
func (nw *network) forwardPass(x *mat.Dense) []*mat.Dense {
	s := nw.scratchFor(x.Rows())
	acts := s.acts
	acts[0] = x
	for l := 0; l < nw.layers(); l++ {
		z := acts[l+1]
		mat.MulBias(z, acts[l], nw.weightMat(l), nw.biases(l))
		if l < nw.layers()-1 {
			applyActivation(z, nw.activation)
		} else if nw.softmaxOut {
			softmaxRows(z)
		}
	}
	return acts
}

// lossGrad computes the regularized loss and its gradient over the batch.
// For classification target is one-hot rows (softmax + cross-entropy); for
// regression target holds real values (identity + half squared error).
// wsq is weightSq of the current parameters, as loss takes it. grad must
// have len(nw.params); it is overwritten.
func (nw *network) lossGrad(x, target *mat.Dense, alpha, wsq float64, grad []float64) float64 {
	loss := nw.loss(x, target, alpha, wsq)
	nw.backprop(x, target, alpha, grad)
	return loss
}

// loss runs the forward pass over the batch and returns the regularized
// loss, leaving the activations in the scratch for x's row count, where
// a backprop call with the same x and target reads them. wsq must be
// weightSq of the current parameters, bit for bit: the step that wrote
// them carries it (stepBlocks), so loss does not walk the weights.
func (nw *network) loss(x, target *mat.Dense, alpha, wsq float64) float64 {
	out := nw.forwardPass(x)[nw.layers()]
	var loss float64
	if nw.softmaxOut {
		loss = crossEntropy(out, target)
	} else {
		loss = halfSquaredError(out, target)
	}
	// L2 penalty on weights only (not biases), matching sklearn.
	return loss + 0.5*alpha*wsq/float64(x.Rows())
}

// backprop writes into grad the gradient of the loss the last loss call
// computed, from the activations that call left behind; x and target
// must be the ones it was given, and the parameters unchanged since.
// grad must have len(nw.params); it is overwritten.
func (nw *network) backprop(x, target *mat.Dense, alpha float64, grad []float64) {
	n := x.Rows()
	s := nw.scratchFor(n)
	acts := s.acts
	// delta starts as dL/dz of the output layer; for both softmax+CE and
	// identity+MSE that is (out - target)/n.
	delta := s.deltas[nw.layers()]
	copy(delta.Data(), acts[nw.layers()].Data())
	delta.Sub(target)
	delta.Scale(1 / float64(n))

	// Every element of grad is overwritten below (weights via the L2
	// fold out of the gw buffer, biases via ColSumsInto), so no upfront
	// zeroing is needed.
	for l := nw.layers() - 1; l >= 0; l-- {
		// Weight gradient: actsᵀ[l] * delta, plus the L2 term.
		gw := nw.gwBuf(l)
		mat.TMul(gw, acts[l], delta)
		w := nw.weights(l)
		mat.FoldL2(grad[nw.wOff[l]:nw.wOff[l]+len(w)], gw.Data(), w, alpha, float64(n))
		// Bias gradient: column sums of delta.
		mat.ColSumsInto(grad[nw.bOff[l]:nw.bOff[l]+nw.dims[l+1]], delta)
		if l == 0 {
			break
		}
		// Propagate: delta_prev = (delta * Wᵀ) ⊙ act'(acts[l]).
		prev := s.deltas[l]
		mat.Mul(prev, delta, nw.packWT(l))
		applyActivationDeriv(prev, acts[l], nw.activation)
		delta = prev
	}
}

// applyActivation applies the hidden-layer activation to z in place.
func applyActivation(z *mat.Dense, act Activation) {
	switch act {
	case Logistic:
		mat.Logistic(z.Data())
	case Tanh:
		mat.Tanh(z.Data())
	case ReLU:
		mat.ReLU(z.Data())
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(act)))
	}
}

// applyActivationDeriv multiplies delta in place by act'(z) expressed in
// terms of the post-activation values a.
func applyActivationDeriv(delta, a *mat.Dense, act Activation) {
	switch act {
	case Logistic:
		mat.LogisticDeriv(delta.Data(), a.Data())
	case Tanh:
		mat.TanhDeriv(delta.Data(), a.Data())
	case ReLU:
		mat.ReLUDeriv(delta.Data(), a.Data())
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(act)))
	}
}

// softmaxRows turns each row of z into probabilities: the row's max is
// subtracted, one mat.Exp covers the whole matrix, and each row is then
// summed in order and divided by its sum.
func softmaxRows(z *mat.Dense) {
	n, _ := z.Dims()
	for i := 0; i < n; i++ {
		row := z.Row(i)
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		for j, v := range row {
			row[j] = v - mx
		}
	}
	mat.Exp(z.Data())
	for i := 0; i < n; i++ {
		row := z.Row(i)
		var sum float64
		for _, e := range row {
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

func crossEntropy(proba, oneHot *mat.Dense) float64 {
	const eps = 1e-12
	n := proba.Rows()
	var loss float64
	pd, td := proba.Data(), oneHot.Data()
	for i, t := range td {
		if t > 0 {
			p := pd[i]
			if p < eps {
				p = eps
			}
			loss -= t * math.Log(p)
		}
	}
	return loss / float64(n)
}

func halfSquaredError(out, target *mat.Dense) float64 {
	n := out.Rows()
	var loss float64
	od, td := out.Data(), target.Data()
	for i, t := range td {
		d := od[i] - t
		loss += d * d
	}
	return loss / (2 * float64(n))
}
