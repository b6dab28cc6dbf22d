package nn

import (
	"fmt"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

// Lockstep fused training: FitBatch trains several independent trials at
// once, grouping the per-layer matmuls of their concurrent minibatch
// steps into single mat.Batch* dispatches. Grouping changes *when* each
// matmul runs, never the order of any trial's own arithmetic, so every
// model FitBatch produces is bitwise-identical to a solo Fit of the same
// item.
//
// Nothing in the program calls FitBatch any more: the serving path runs
// one evaluation per pool slot (DESIGN.md, "Evaluation path"). It stays
// only because the frozen benchmark in bench/ still measures it
// (nn.fitbatch2_over_solo2), and goes — with internal/mat/batch.go —
// when a benchmark change drops that metric.

// BatchItem is one trial's training input for FitBatch.
type BatchItem struct {
	Train *dataset.Dataset
	Cfg   Config
}

// BatchStats reports how much work the lockstep trainer actually fused.
type BatchStats struct {
	// Steps counts lockstep minibatch steps where at least two trials
	// were active, i.e. their layer matmuls shared a grouped dispatch.
	Steps int64
	// StackedRows sums the minibatch rows stacked across trials in those
	// fused steps.
	StackedRows int64
}

// batchTrainer carries one trial's training state through the lockstep
// epoch loop.
type batchTrainer struct {
	m      *Model
	st     *sgdState
	es     epochState
	valSet *dataset.Dataset
	done   bool

	// Per-step staging, valid from stepBatch through applyUpdate.
	bx, bt *mat.Dense
	acts   []*mat.Dense
	deltas []*mat.Dense
	delta  *mat.Dense
	loss   float64

	epochLoss float64
}

// groupBufs are the reusable Dense-header slices handed to the grouped
// dispatchers, so the lockstep inner loop allocates nothing per step.
type groupBufs struct{ dsts, as, bs []*mat.Dense }

func (g *groupBufs) reset() { g.dsts, g.as, g.bs = g.dsts[:0], g.as[:0], g.bs[:0] }

// FitBatch trains the given trials in lockstep: each epoch every live
// trial shuffles and sweeps its own minibatches, but the per-layer
// matmuls of the trials' concurrent steps run through one grouped
// mat.Batch* dispatch spread over at most workers goroutines
// (0 = GOMAXPROCS). All per-trial arithmetic — shuffling, bias,
// activation, softmax, solver updates, convergence checks — runs on
// that trial's own state in exactly the order Fit uses, so every
// returned model is bitwise-identical to a solo Fit of the same item
// for any group composition and worker count.
//
// Trials may differ in architecture, dataset size, batch size and epoch
// count; a trial that converges early simply drops out of the group.
// L-BFGS items are rejected (its line search has no lockstep
// decomposition) — callers route those to Fit.
func FitBatch(items []BatchItem, workers int) ([]*Model, BatchStats, error) {
	var stats BatchStats
	models := make([]*Model, len(items))
	if len(items) == 0 {
		return models, stats, nil
	}
	ts := make([]*batchTrainer, len(items))
	for i, it := range items {
		cfg, train := it.Cfg, it.Train
		if err := cfg.Validate(); err != nil {
			return nil, stats, fmt.Errorf("nn: batch item %d: %w", i, err)
		}
		if err := train.Validate(); err != nil {
			return nil, stats, fmt.Errorf("nn: batch item %d: %w", i, err)
		}
		if train.Len() < 2 {
			return nil, stats, fmt.Errorf("nn: batch item %d: need at least 2 training instances, got %d", i, train.Len())
		}
		if cfg.Solver == LBFGS {
			return nil, stats, fmt.Errorf("nn: batch item %d: lbfgs is not lockstep-batchable", i)
		}
		// From here on the setup mirrors Fit line for line: same RNG
		// stream splits, same validation carve-out, same state init.
		r := rng.New(cfg.Seed ^ 0xabcdef1234)
		var outputs int
		softmax := train.Kind == dataset.Classification
		if softmax {
			outputs = train.NumClasses
		} else {
			outputs = 1
		}
		nw := newNetwork(nil, train.Features(), cfg.HiddenLayerSizes, outputs, cfg.Activation, softmax, r.Split(1))
		nw.workers = cfg.KernelWorkers
		m := &Model{cfg: cfg, nw: nw, kind: train.Kind, numClasses: train.NumClasses}

		fitSet := train
		var valSet *dataset.Dataset
		if cfg.EarlyStopping && train.Len() >= 10 {
			f, v := splitValidation(nil, train, cfg.ValidationFraction, r.Split(2))
			fitSet, valSet = f, v
		}
		x := fitSet.X
		target := targetMatrix(nil, fitSet)
		st := m.newSGDState(x, target, r.Split(3))
		m.LossCurve = make([]float64, 0, cfg.MaxIter)
		models[i] = m
		ts[i] = &batchTrainer{m: m, st: st, es: newEpochState(), valSet: valSet}
	}

	live := make([]*batchTrainer, 0, len(ts))
	step := make([]*batchTrainer, 0, len(ts))
	var buf groupBufs
	for epoch := 0; ; epoch++ {
		live = live[:0]
		for _, t := range ts {
			if !t.done && epoch < t.m.cfg.MaxIter {
				live = append(live, t)
			}
		}
		if len(live) == 0 {
			break
		}
		maxSteps := 0
		for _, t := range live {
			t.st.beginEpoch()
			t.epochLoss = 0
			if nb := t.st.numBatches(); nb > maxSteps {
				maxSteps = nb
			}
		}
		for s := 0; s < maxSteps; s++ {
			step = step[:0]
			for _, t := range live {
				if s < t.st.numBatches() {
					step = append(step, t)
				}
			}
			for _, t := range step {
				t.bx, t.bt = t.st.stepBatch(s)
			}
			lossGradBatch(step, workers, &buf)
			for _, t := range step {
				t.epochLoss += t.loss
				t.st.applyUpdate()
			}
			if len(step) > 1 {
				stats.Steps++
				for _, t := range step {
					stats.StackedRows += int64(t.bx.Rows())
				}
			}
		}
		for _, t := range live {
			mean := t.epochLoss / float64(t.st.numBatches())
			if t.m.observeEpoch(&t.es, t.st, t.valSet, mean) {
				t.done = true
			}
		}
	}
	return models, stats, nil
}

// lossGradBatch computes each active trainer's regularized minibatch
// loss and gradient (into t.loss and t.st.grad), grouping the per-layer
// matmul phases of all trainers into single mat.Batch* dispatches.
// Everything else — bias add, activation, softmax, delta folding, L2 —
// runs per trainer on its own buffers in the same order as a solo
// lossGrad call, so each trainer's result is bitwise-identical to solo
// execution regardless of grouping or worker count. Trainers may have
// different depths: a shallow trial simply sits out the layer indices
// it does not have (above its depth on the way up, before its top layer
// on the way down), which preserves its own solo layer order exactly.
func lossGradBatch(ts []*batchTrainer, workers int, buf *groupBufs) {
	maxL := 0
	for _, t := range ts {
		nw := t.m.nw
		s := nw.scratchFor(t.bx.Rows())
		s.acts[0] = t.bx
		t.acts = s.acts
		t.deltas = s.deltas
		if L := nw.layers(); L > maxL {
			maxL = L
		}
	}

	// Forward.
	for l := 0; l < maxL; l++ {
		buf.reset()
		for _, t := range ts {
			if l < t.m.nw.layers() {
				buf.dsts = append(buf.dsts, t.acts[l+1])
				buf.as = append(buf.as, t.acts[l])
				buf.bs = append(buf.bs, t.m.nw.weightMat(l))
			}
		}
		mat.BatchMulWorkers(buf.dsts, buf.as, buf.bs, workers)
		for _, t := range ts {
			nw := t.m.nw
			if l >= nw.layers() {
				continue
			}
			z := t.acts[l+1]
			mat.AddRowVector(z, nw.biases(l))
			if l < nw.layers()-1 {
				applyActivation(z, nw.activation)
			} else if nw.softmaxOut {
				softmaxRows(z)
			}
		}
	}

	// Output delta and data loss.
	for _, t := range ts {
		nw := t.m.nw
		out := t.acts[nw.layers()]
		delta := t.deltas[nw.layers()]
		copy(delta.Data(), out.Data())
		if nw.softmaxOut {
			t.loss = crossEntropy(out, t.bt)
		} else {
			t.loss = halfSquaredError(out, t.bt)
		}
		delta.Sub(t.bt)
		delta.Scale(1 / float64(t.bx.Rows()))
		t.delta = delta
	}

	// Backward, descending global layer index.
	for l := maxL - 1; l >= 0; l-- {
		buf.reset()
		for _, t := range ts {
			if l < t.m.nw.layers() {
				buf.dsts = append(buf.dsts, t.m.nw.gwBuf(l))
				buf.as = append(buf.as, t.acts[l])
				buf.bs = append(buf.bs, t.delta)
			}
		}
		mat.BatchTMulWorkers(buf.dsts, buf.as, buf.bs, workers)
		for _, t := range ts {
			nw := t.m.nw
			if l >= nw.layers() {
				continue
			}
			grad := t.st.grad
			w := nw.weights(l)
			mat.FoldL2(grad[nw.wOff[l]:nw.wOff[l]+len(w)], nw.gwBuf(l).Data(), w, t.m.cfg.Alpha, float64(t.bx.Rows()))
			mat.ColSumsInto(grad[nw.bOff[l]:nw.bOff[l]+nw.dims[l+1]], t.delta)
		}
		if l == 0 {
			break
		}
		buf.reset()
		for _, t := range ts {
			if l < t.m.nw.layers() {
				buf.dsts = append(buf.dsts, t.deltas[l])
				buf.as = append(buf.as, t.delta)
				buf.bs = append(buf.bs, t.m.nw.weightMat(l))
			}
		}
		mat.BatchMulTWorkers(buf.dsts, buf.as, buf.bs, workers)
		for _, t := range ts {
			nw := t.m.nw
			if l >= nw.layers() {
				continue
			}
			prev := t.deltas[l]
			applyActivationDeriv(prev, t.acts[l], nw.activation)
			t.delta = prev
		}
	}

	// L2 penalty on weights only, matching lossGrad.
	for _, t := range ts {
		nw := t.m.nw
		var reg float64
		for l := 0; l < nw.layers(); l++ {
			for _, wv := range nw.weights(l) {
				reg += wv * wv
			}
		}
		t.loss += 0.5 * t.m.cfg.Alpha * reg / float64(t.bx.Rows())
	}
}
