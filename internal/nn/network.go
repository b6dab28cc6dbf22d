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

	// workers caps kernel parallelism for this network's matmuls
	// (0 = the mat package default). Results are bitwise-identical for
	// any setting; it only bounds CPU use per evaluation.
	workers int
	// ws is where the parameter vector and every buffer below come from;
	// nil is the heap. A network built on an arena — and the Model around
	// it — is valid only until that arena is reset.
	ws *mat.Arena
	// Reused buffers (lazily built — Load constructs networks without
	// newNetwork): weight views, weight-gradient buffers, and per-row-
	// count forward/backward scratch. Their presence makes forwardPass
	// and lossGrad allocation-free in steady state, but also means a
	// network must not be used from multiple goroutines concurrently.
	wMats   []*mat.Dense
	gwBufs  []*mat.Dense
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
		w := nw.weights(l)
		for i := range w {
			w[i] = (2*r.Float64() - 1) * bound
		}
		b := nw.biases(l)
		for i := range b {
			b[i] = (2*r.Float64() - 1) * bound
		}
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
		mat.MulWorkers(z, acts[l], nw.weightMat(l), nw.workers)
		mat.AddRowVector(z, nw.biases(l))
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
// grad must have len(nw.params); it is overwritten.
func (nw *network) lossGrad(x, target *mat.Dense, alpha float64, grad []float64) float64 {
	n := x.Rows()
	s := nw.scratchFor(n)
	acts := nw.forwardPass(x)
	out := acts[len(acts)-1]
	var loss float64
	// delta starts as dL/dz of the output layer; for both softmax+CE and
	// identity+MSE that is (out - target)/n.
	delta := s.deltas[nw.layers()]
	copy(delta.Data(), out.Data())
	if nw.softmaxOut {
		loss = crossEntropy(out, target)
	} else {
		loss = halfSquaredError(out, target)
	}
	delta.Sub(target)
	delta.Scale(1 / float64(n))

	// Every element of grad is overwritten below (weights via the gw copy,
	// biases via ColSumsInto), so no upfront zeroing is needed.
	for l := nw.layers() - 1; l >= 0; l-- {
		// Weight gradient: actsᵀ[l] * delta  (+ L2 term folded into the
		// copy out of the scratch buffer).
		gw := nw.gwBuf(l)
		mat.TMulWorkers(gw, acts[l], delta, nw.workers)
		w := nw.weights(l)
		gwData := gw.Data()
		gSlice := grad[nw.wOff[l] : nw.wOff[l]+len(w)]
		for i, wv := range w {
			gSlice[i] = gwData[i] + alpha*wv/float64(n)
		}
		// Bias gradient: column sums of delta.
		mat.ColSumsInto(grad[nw.bOff[l]:nw.bOff[l]+nw.dims[l+1]], delta)
		if l == 0 {
			break
		}
		// Propagate: delta_prev = (delta * Wᵀ) ⊙ act'(acts[l]).
		prev := s.deltas[l]
		mat.MulTWorkers(prev, delta, nw.weightMat(l), nw.workers)
		applyActivationDeriv(prev, acts[l], nw.activation)
		delta = prev
	}
	// L2 penalty on weights only (not biases), matching sklearn.
	var reg float64
	for l := 0; l < nw.layers(); l++ {
		for _, wv := range nw.weights(l) {
			reg += wv * wv
		}
	}
	loss += 0.5 * alpha * reg / float64(n)
	return loss
}

func applyActivation(z *mat.Dense, act Activation) {
	switch act {
	case Logistic:
		z.Apply(func(v float64) float64 { return 1 / (1 + math.Exp(-v)) })
	case Tanh:
		z.Apply(math.Tanh)
	case ReLU:
		z.Apply(func(v float64) float64 {
			if v < 0 {
				return 0
			}
			return v
		})
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(act)))
	}
}

// applyActivationDeriv multiplies delta in place by act'(z) expressed in
// terms of the post-activation values a.
func applyActivationDeriv(delta, a *mat.Dense, act Activation) {
	dd := delta.Data()
	ad := a.Data()
	switch act {
	case Logistic:
		for i, av := range ad {
			dd[i] *= av * (1 - av)
		}
	case Tanh:
		for i, av := range ad {
			dd[i] *= 1 - av*av
		}
	case ReLU:
		for i, av := range ad {
			if av <= 0 {
				dd[i] = 0
			}
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", int(act)))
	}
}

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
		var sum float64
		for j, v := range row {
			e := math.Exp(v - mx)
			row[j] = e
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
