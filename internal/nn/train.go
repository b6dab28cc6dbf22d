package nn

import (
	"fmt"
	"math"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/metrics"
	"enhancedbhpo/internal/rng"
)

// Model is a trained MLP.
type Model struct {
	cfg        Config
	nw         *network
	kind       dataset.Kind
	numClasses int
	// LossCurve records the training loss after each epoch/iteration.
	LossCurve []float64
	// Epochs is the number of epochs/iterations actually run.
	Epochs int

	// Prediction buffers reused by Score and ScoreF1.
	predClass []int
	predReg   []float64
}

// Fit trains an MLP on train. Classification datasets get a softmax
// classifier over train.NumClasses classes; regression datasets get a
// single-output regressor. Training is deterministic given cfg.Seed.
func Fit(train *dataset.Dataset, cfg Config) (*Model, error) { return FitIn(nil, train, cfg) }

// FitIn is Fit with the model's parameters and every training buffer
// taken from ws, for callers that score the model and drop it: the
// returned Model aliases ws and must not be used after ws.Reset(). The
// arithmetic — and so every weight and score — is that of Fit; a nil ws
// is Fit.
func FitIn(ws *mat.Arena, train *dataset.Dataset, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if train.Len() < 2 {
		return nil, fmt.Errorf("nn: need at least 2 training instances, got %d", train.Len())
	}
	r := rng.New(cfg.Seed ^ 0xabcdef1234)
	var outputs int
	softmax := train.Kind == dataset.Classification
	if softmax {
		outputs = train.NumClasses
	} else {
		outputs = 1
	}
	nw := newNetwork(ws, train.Features(), cfg.HiddenLayerSizes, outputs, cfg.Activation, softmax, r.Split(1))
	nw.workers = cfg.KernelWorkers
	m := &Model{cfg: cfg, nw: nw, kind: train.Kind, numClasses: train.NumClasses}

	fitSet := train
	var valSet *dataset.Dataset
	if cfg.EarlyStopping && train.Len() >= 10 {
		f, v := splitValidation(ws, train, cfg.ValidationFraction, r.Split(2))
		fitSet, valSet = f, v
	}
	x := fitSet.X
	target := targetMatrix(ws, fitSet)

	switch cfg.Solver {
	case LBFGS:
		m.fitLBFGS(x, target)
	case SGD, Adam:
		m.fitStochastic(x, target, valSet, r.Split(3))
	default:
		return nil, fmt.Errorf("nn: unknown solver %v", cfg.Solver)
	}
	return m, nil
}

// splitValidation carves a validation holdout off train (stratified for
// classification).
func splitValidation(ws *mat.Arena, train *dataset.Dataset, fraction float64, r *rng.RNG) (fit, val *dataset.Dataset) {
	n := train.Len()
	k := int(float64(n) * fraction)
	if k < 1 {
		k = 1
	}
	if k >= n {
		k = n - 1
	}
	valIdx := train.StratifiedSample(r, k)
	inVal := ws.Ints(n)
	for _, i := range valIdx {
		inVal[i] = 1
	}
	fitIdx := ws.Ints(n - k)[:0]
	for i := 0; i < n; i++ {
		if inVal[i] == 0 {
			fitIdx = append(fitIdx, i)
		}
	}
	return train.SelectIn(ws, fitIdx), train.SelectIn(ws, valIdx)
}

// targetMatrix builds the training target: one-hot rows for classification,
// a single column of values for regression.
func targetMatrix(ws *mat.Arena, d *dataset.Dataset) *mat.Dense {
	n := d.Len()
	if d.Kind == dataset.Classification {
		t := ws.Dense(n, d.NumClasses)
		for i, c := range d.Class {
			t.Set(i, c, 1)
		}
		return t
	}
	t := ws.Dense(n, 1)
	for i, v := range d.Target {
		t.Set(i, 0, v)
	}
	return t
}

// sgdState holds every buffer the stochastic solvers need so the epoch
// loop allocates nothing in steady state (pinned by the AllocsPerRun
// regression test). The minibatch buffers come in two sizes — the full
// batch and the n%batch tail — both preallocated up front.
type sgdState struct {
	m         *Model
	x, target *mat.Dense
	n, batch  int
	r         *rng.RNG

	grad                   []float64
	velocity, adamM, adamV []float64
	lr                     float64
	// step is the global minibatch counter driving the invscaling
	// schedule (equals epoch*batchesPerEpoch + batchInEpoch, 1-based).
	step  int
	adamT int

	order          []int
	bx, bt         *mat.Dense // full-size minibatch buffers
	tailBx, tailBt *mat.Dense // n%batch remainder buffers (nil when none)
}

func (m *Model) newSGDState(x, target *mat.Dense, r *rng.RNG) *sgdState {
	cfg := m.cfg
	n := x.Rows()
	batch := cfg.BatchSize
	if batch > n {
		batch = n
	}
	p := len(m.nw.params)
	ws := m.nw.ws
	st := &sgdState{
		m: m, x: x, target: target, n: n, batch: batch, r: r,
		grad: ws.Floats(p),
		lr:   cfg.LearningRateInit,
		bx:   ws.Dense(batch, x.Cols()),
		bt:   ws.Dense(batch, target.Cols()),
	}
	if cfg.Solver == SGD {
		st.velocity = ws.Floats(p)
	} else {
		st.adamM = ws.Floats(p)
		st.adamV = ws.Floats(p)
	}
	if rem := n % batch; rem != 0 {
		st.tailBx = ws.Dense(rem, x.Cols())
		st.tailBt = ws.Dense(rem, target.Cols())
	}
	st.order = ws.Ints(n)
	for i := range st.order {
		st.order[i] = i
	}
	return st
}

// runEpoch shuffles, sweeps the minibatches — the last one the n%batch
// tail — and applies the solver update after each, returning the mean
// minibatch loss. Steady-state calls are allocation-free: minibatch
// buffers, the gradient vector and the network's forward/backward
// scratch are all reused.
func (st *sgdState) runEpoch() float64 {
	m, cfg, grad := st.m, st.m.cfg, st.grad
	st.r.Shuffle(st.order)
	var epochLoss float64
	batches := 0
	for start := 0; start < st.n; start += st.batch {
		end := min(start+st.batch, st.n)
		bx, bt := st.bx, st.bt
		if end-start != st.batch {
			bx, bt = st.tailBx, st.tailBt
		}
		for bi, src := range st.order[start:end] {
			copy(bx.Row(bi), st.x.Row(src))
			copy(bt.Row(bi), st.target.Row(src))
		}
		epochLoss += m.nw.lossGrad(bx, bt, cfg.Alpha, grad)
		batches++

		st.step++
		switch cfg.Solver {
		case SGD:
			effLR := st.lr
			if cfg.LearningRate == InvScaling {
				effLR = cfg.LearningRateInit / math.Pow(float64(st.step), cfg.PowerT)
			}
			velocity := st.velocity
			if cfg.Nesterov {
				// Nesterov look-ahead in the standard reformulation
				// (sklearn's): v ← μ·v − lr·∇; params += μ·v − lr·∇.
				for i := range velocity {
					velocity[i] = cfg.Momentum*velocity[i] - effLR*grad[i]
					m.nw.params[i] += cfg.Momentum*velocity[i] - effLR*grad[i]
				}
			} else {
				for i := range velocity {
					velocity[i] = cfg.Momentum*velocity[i] - effLR*grad[i]
					m.nw.params[i] += velocity[i]
				}
			}
		case Adam:
			st.adamT++
			const beta1, beta2, eps = 0.9, 0.999, 1e-8
			b1c := 1 - math.Pow(beta1, float64(st.adamT))
			b2c := 1 - math.Pow(beta2, float64(st.adamT))
			mat.AdamStep(m.nw.params, st.adamM, st.adamV, grad, mat.AdamCoeffs{
				Beta1: beta1, OneMinusBeta1: 1 - beta1,
				Beta2: beta2, OneMinusBeta2: 1 - beta2,
				LR: st.lr, B1c: b1c, B2c: b2c, Eps: eps,
			})
		}
	}
	return epochLoss / float64(batches)
}

// fitStochastic runs the sgd/adam epoch loop with mini-batches, learning
// rate schedules, early stopping and the no-improvement convergence check.
func (m *Model) fitStochastic(x, target *mat.Dense, valSet *dataset.Dataset, r *rng.RNG) {
	cfg := m.cfg
	st := m.newSGDState(x, target, r)
	m.LossCurve = m.nw.ws.Floats(cfg.MaxIter)[:0]
	// The best holdout score (under early stopping) or training loss so
	// far, the epochs since it last improved by Tol, and the adaptive
	// schedule's run of stalled epochs.
	bestLoss, bestVal := math.Inf(1), math.Inf(-1)
	noImprove, adaptiveStall := 0, 0
	for epoch := 0; epoch < cfg.MaxIter; epoch++ {
		epochLoss := st.runEpoch()
		m.LossCurve = append(m.LossCurve, epochLoss)

		if valSet != nil {
			if score := m.Score(valSet); score > bestVal+cfg.Tol {
				bestVal = score
				noImprove = 0
			} else {
				noImprove++
			}
		} else if epochLoss < bestLoss-cfg.Tol {
			bestLoss = epochLoss
			noImprove = 0
		} else {
			noImprove++
		}
		// Adaptive schedule: divide the rate by 5 when the loss stalls
		// twice in a row, and stop once it falls below 1e-6.
		if cfg.Solver == SGD && cfg.LearningRate == Adaptive {
			if epoch > 0 && epochLoss > m.LossCurve[epoch-1]-cfg.Tol {
				adaptiveStall++
			} else {
				adaptiveStall = 0
			}
			if adaptiveStall >= 2 {
				st.lr /= 5
				adaptiveStall = 0
				if st.lr < 1e-6 {
					break
				}
			}
		}
		if noImprove >= cfg.NIterNoChange {
			break
		}
	}
	m.Epochs = len(m.LossCurve)
}

// Predict returns the predicted class for each row of d (classification
// models only).
func (m *Model) Predict(d *dataset.Dataset) []int {
	return m.predictInto(make([]int, d.Len()), d)
}

// predictInto writes the arg-max class of each row of d into out.
func (m *Model) predictInto(out []int, d *dataset.Dataset) []int {
	if m.kind != dataset.Classification {
		panic("nn: Predict on regression model")
	}
	acts := m.nw.forwardPass(d.X)
	proba := acts[len(acts)-1]
	for i := range out {
		row := proba.Row(i)
		best, bestP := 0, row[0]
		for c, p := range row {
			if p > bestP {
				best, bestP = c, p
			}
		}
		out[i] = best
	}
	return out
}

// PredictProba returns the class-probability rows for d.
func (m *Model) PredictProba(d *dataset.Dataset) [][]float64 {
	if m.kind != dataset.Classification {
		panic("nn: PredictProba on regression model")
	}
	acts := m.nw.forwardPass(d.X)
	out := acts[len(acts)-1]
	n := out.Rows()
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = append([]float64(nil), out.Row(i)...)
	}
	return rows
}

// PredictReg returns the predicted targets for d (regression models only).
func (m *Model) PredictReg(d *dataset.Dataset) []float64 {
	return m.predictRegInto(make([]float64, d.Len()), d)
}

func (m *Model) predictRegInto(out []float64, d *dataset.Dataset) []float64 {
	if m.kind != dataset.Regression {
		panic("nn: PredictReg on classification model")
	}
	acts := m.nw.forwardPass(d.X)
	pred := acts[len(acts)-1]
	for i := range out {
		out[i] = pred.At(i, 0)
	}
	return out
}

// Score returns the model's default metric on d: accuracy for
// classification, R² for regression — matching the paper's Table IV
// reporting (F1 is available through ScoreF1 for imbalanced datasets).
func (m *Model) Score(d *dataset.Dataset) float64 {
	if m.kind == dataset.Classification {
		return metrics.Accuracy(m.scratchClasses(d), d.Class)
	}
	if cap(m.predReg) < d.Len() {
		m.predReg = m.nw.ws.Floats(d.Len())
	}
	return metrics.R2(m.predictRegInto(m.predReg[:d.Len()], d), d.Target)
}

// ScoreF1 returns binary F1 for 2-class models and macro F1 otherwise.
func (m *Model) ScoreF1(d *dataset.Dataset) float64 {
	if m.kind != dataset.Classification {
		panic("nn: ScoreF1 on regression model")
	}
	pred := m.scratchClasses(d)
	if m.numClasses == 2 {
		return metrics.F1Binary(pred, d.Class)
	}
	return metrics.F1Macro(pred, d.Class, m.numClasses)
}

// scratchClasses is Predict into a buffer the model keeps, for the
// scorers: they read the predictions once, and early stopping scores the
// same holdout every epoch.
func (m *Model) scratchClasses(d *dataset.Dataset) []int {
	if cap(m.predClass) < d.Len() {
		m.predClass = m.nw.ws.Ints(d.Len())
	}
	return m.predictInto(m.predClass[:d.Len()], d)
}

// NumParams returns the size of the flat parameter vector.
func (m *Model) NumParams() int { return len(m.nw.params) }
