package nn

import (
	"enhancedbhpo/internal/mat"
)

// batchScratch holds the forward/backward buffers for one batch row
// count. Training alternates between at most two row counts (the full
// minibatch and the n%batch tail), so a network accumulates a handful of
// these over its lifetime and every epoch after the first reuses them.
type batchScratch struct {
	rows int
	// acts[l+1] is the post-activation output of layer l (rows×dims[l+1]);
	// acts[0] is repointed at the caller's input every pass.
	acts []*mat.Dense
	// deltas[l] is the backprop error at layer l's input (rows×dims[l]),
	// for l = 1..layers; deltas[layers] doubles as the initial output
	// delta.
	deltas []*mat.Dense
}

// scratchFor returns (lazily building) the scratch buffers for the given
// batch row count. Lazy construction keeps serialization's struct-literal
// network loads working without a constructor hook.
func (nw *network) scratchFor(rows int) *batchScratch {
	for _, s := range nw.scratch {
		if s.rows == rows {
			return s
		}
	}
	L := nw.layers()
	s := &batchScratch{
		rows:   rows,
		acts:   make([]*mat.Dense, L+1),
		deltas: make([]*mat.Dense, L+1),
	}
	for l := 0; l < L; l++ {
		s.acts[l+1] = nw.ws.Dense(rows, nw.dims[l+1])
	}
	for l := 1; l <= L; l++ {
		s.deltas[l] = nw.ws.Dense(rows, nw.dims[l])
	}
	nw.scratch = append(nw.scratch, s)
	return s
}

// weightMat returns layer l's weight block viewed as fanIn×fanOut. The
// view headers are cached: params is never reallocated, so the views stay
// valid for the network's lifetime.
func (nw *network) weightMat(l int) *mat.Dense {
	if nw.wMats == nil {
		nw.wMats = make([]*mat.Dense, nw.layers())
	}
	if nw.wMats[l] == nil {
		nw.wMats[l] = nw.ws.DenseData(nw.dims[l], nw.dims[l+1], nw.weights(l))
	}
	return nw.wMats[l]
}

// gwBuf returns layer l's weight-gradient buffer (fanIn×fanOut). TMul
// needs a Dense destination distinct from its operands; writing into this
// persistent buffer and folding the copy into the L2 add keeps lossGrad
// free of per-call Dense headers.
func (nw *network) gwBuf(l int) *mat.Dense {
	if nw.gwBufs == nil {
		nw.gwBufs = make([]*mat.Dense, nw.layers())
	}
	if nw.gwBufs[l] == nil {
		nw.gwBufs[l] = nw.ws.Dense(nw.dims[l], nw.dims[l+1])
	}
	return nw.gwBufs[l]
}

// packWT returns layer l's weights transposed (fanOut×fanIn), copied
// from the parameters into the layer's persistent buffer. Backprop's
// delta·Wᵀ is then a plain Mul, which runs as register tiles over
// contiguous rows; each element sums the same products in the same
// ascending order as a MulT against the weights would. The copy is made
// on every call, since the parameters change between backprops.
func (nw *network) packWT(l int) *mat.Dense {
	if nw.wtBufs == nil {
		nw.wtBufs = make([]*mat.Dense, nw.layers())
	}
	fanIn, fanOut := nw.dims[l], nw.dims[l+1]
	if nw.wtBufs[l] == nil {
		nw.wtBufs[l] = nw.ws.Dense(fanOut, fanIn)
	}
	wt, w := nw.wtBufs[l].Data(), nw.weights(l)
	for i := 0; i < fanIn; i++ {
		for j, v := range w[i*fanOut : (i+1)*fanOut] {
			wt[j*fanIn+i] = v
		}
	}
	return nw.wtBufs[l]
}
