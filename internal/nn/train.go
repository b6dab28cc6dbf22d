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
	return FitFrom(ws, train, cfg, Init{})
}

// DrawInits draws in ws the initial parameters of the networks FitIn
// trains for cfg on data shaped like train — its features and classes —
// with each of seeds as cfg.Seed, four at a time (drawInit). FitFrom
// trains from them: FitFrom(ws', d, c, inits[k]), with c cfg under
// seeds[k], is FitIn(ws', d, c) bit for bit. The Inits alias ws and are
// valid until ws.Reset(). Where cfg is invalid every Init is the zero
// Init, from which FitFrom draws its own and so rejects cfg as FitIn
// does.
func DrawInits(ws *mat.Arena, train *dataset.Dataset, cfg Config, seeds []uint64) []Init {
	if cfg.Validate() != nil {
		return make([]Init, len(seeds))
	}
	nw, size := layoutFor(ws, train, cfg)
	rs := make([]*rng.RNG, len(seeds))
	for k, seed := range seeds {
		rs[k] = fitRNG(seed).Split(1)
	}
	return nw.drawInit(size, rs)
}

// FitFrom is FitIn starting from init, drawn for cfg on data shaped like
// train by DrawInits; from the zero Init it draws its own, and is FitIn.
// The model trains in init's parameter vector.
func FitFrom(ws *mat.Arena, train *dataset.Dataset, cfg Config, init Init) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if train.Len() < 2 {
		return nil, fmt.Errorf("nn: need at least 2 training instances, got %d", train.Len())
	}
	r := fitRNG(cfg.Seed)
	nw, size := layoutFor(ws, train, cfg)
	if init.params == nil {
		init = nw.drawInit(size, []*rng.RNG{r.Split(1)})[0]
	} else if len(init.params) != size {
		panic(fmt.Sprintf("nn: %d initial parameters for a network of %d", len(init.params), size))
	}
	nw.params = init.params
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
		m.fitLBFGS(x, target, init.wsq)
	case SGD, Adam:
		m.fitStochastic(x, target, valSet, r.Split(3), init.wsq)
	default:
		return nil, fmt.Errorf("nn: unknown solver %v", cfg.Solver)
	}
	return m, nil
}

// fitRNG is the generator a fit with the given seed draws from: its
// Split(1) draws the initial parameters, Split(2) carves the validation
// holdout and Split(3) shuffles the minibatches.
func fitRNG(seed uint64) *rng.RNG { return rng.New(seed ^ 0xabcdef1234) }

// layoutFor lays out the network FitIn builds for cfg on train: train's
// features in, cfg's hidden layers, and a softmax over train's classes
// or one linear output.
func layoutFor(ws *mat.Arena, train *dataset.Dataset, cfg Config) (*network, int) {
	softmax := train.Kind == dataset.Classification
	outputs := 1
	if softmax {
		outputs = train.NumClasses
	}
	return layoutNetwork(ws, train.Features(), cfg.HiddenLayerSizes, outputs, cfg.Activation, softmax)
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
	// wsq is Σw² of the current parameters: the draw's to start with,
	// then carried by each step.
	wsq float64
	// step is the global minibatch counter driving the invscaling
	// schedule (equals epoch*batchesPerEpoch + batchInEpoch, 1-based).
	step  int
	adamT int

	order          []int
	bx, bt         *mat.Dense // full-size minibatch buffers
	tailBx, tailBt *mat.Dense // n%batch remainder buffers (nil when none)
}

func (m *Model) newSGDState(x, target *mat.Dense, r *rng.RNG, wsq float64) *sgdState {
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
		grad: ws.FloatsUnzeroed(p),
		lr:   cfg.LearningRateInit,
		wsq:  wsq,
		bx:   m.nw.writeFirst(batch, x.Cols()),
		bt:   m.nw.writeFirst(batch, target.Cols()),
	}
	if cfg.Solver == SGD {
		st.velocity = ws.Floats(p)
	} else {
		st.adamM = ws.Floats(p)
		st.adamV = ws.Floats(p)
	}
	if rem := n % batch; rem != 0 {
		st.tailBx = m.nw.writeFirst(rem, x.Cols())
		st.tailBt = m.nw.writeFirst(rem, target.Cols())
	}
	st.order = ws.Ints(n)
	for i := range st.order {
		st.order[i] = i
	}
	return st
}

// runEpoch shuffles, sweeps the minibatches — the last one the n%batch
// tail — and applies the solver update after each, returning the mean
// minibatch loss. The update is one kernel pass per parameter block
// that also yields the next loss's Σw′². Steady-state calls are
// allocation-free: minibatch buffers, the gradient vector and the
// network's forward/backward scratch are all reused.
func (st *sgdState) runEpoch() float64 {
	m, cfg, grad := st.m, st.m.cfg, st.grad
	params := m.nw.params
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
		epochLoss += m.nw.lossGrad(bx, bt, cfg.Alpha, st.wsq, grad)
		batches++

		st.step++
		switch cfg.Solver {
		case SGD:
			effLR := st.lr
			if cfg.LearningRate == InvScaling {
				effLR = cfg.LearningRateInit / math.Pow(float64(st.step), cfg.PowerT)
			}
			// Nesterov look-ahead in the standard reformulation
			// (sklearn's): v ← μ·v − lr·∇; params += μ·v − lr·∇.
			st.wsq = m.nw.stepBlocks(func(lo, hi int, sq float64) float64 {
				return mat.SGDStep(params[lo:hi], st.velocity[lo:hi], grad[lo:hi], cfg.Momentum, effLR, cfg.Nesterov, sq)
			})
		case Adam:
			st.adamT++
			const beta1, beta2, eps = 0.9, 0.999, 1e-8
			c := mat.AdamCoeffs{
				Beta1: beta1, OneMinusBeta1: 1 - beta1,
				Beta2: beta2, OneMinusBeta2: 1 - beta2,
				LR: st.lr, Eps: eps,
				B1c: 1 - math.Pow(beta1, float64(st.adamT)),
				B2c: 1 - math.Pow(beta2, float64(st.adamT)),
			}
			st.wsq = m.nw.stepBlocks(func(lo, hi int, sq float64) float64 {
				return mat.AdamStep(params[lo:hi], st.adamM[lo:hi], st.adamV[lo:hi], grad[lo:hi], c, sq)
			})
		}
	}
	return epochLoss / float64(batches)
}

// fitStochastic runs the sgd/adam epoch loop with mini-batches, learning
// rate schedules, early stopping and the no-improvement convergence check.
// wsq is Σw² of the initial parameters.
func (m *Model) fitStochastic(x, target *mat.Dense, valSet *dataset.Dataset, r *rng.RNG, wsq float64) {
	cfg := m.cfg
	st := m.newSGDState(x, target, r, wsq)
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

// predictInto writes the arg-max class of each row of d into out
// (classification models only).
func (m *Model) predictInto(out []int, d *dataset.Dataset) []int {
	if m.kind != dataset.Classification {
		panic("nn: class prediction on regression model")
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

// predictRegInto writes the predicted target of each row of d into out
// (regression models only).
func (m *Model) predictRegInto(out []float64, d *dataset.Dataset) []float64 {
	if m.kind != dataset.Regression {
		panic("nn: target prediction on classification model")
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

// scratchClasses predicts into a buffer the model keeps, for the
// scorers: they read the predictions once, and early stopping scores the
// same holdout every epoch.
func (m *Model) scratchClasses(d *dataset.Dataset) []int {
	if cap(m.predClass) < d.Len() {
		m.predClass = m.nw.ws.Ints(d.Len())
	}
	return m.predictInto(m.predClass[:d.Len()], d)
}
