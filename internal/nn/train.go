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

// beginEpoch reshuffles the minibatch visit order for a new epoch.
func (st *sgdState) beginEpoch() { st.r.Shuffle(st.order) }

// numBatches returns the minibatch steps per epoch.
func (st *sgdState) numBatches() int { return (st.n + st.batch - 1) / st.batch }

// stepBatch gathers minibatch s of the current epoch's order into the
// reusable buffers and returns them (the tail buffers for the final
// short step).
func (st *sgdState) stepBatch(s int) (bx, bt *mat.Dense) {
	start := s * st.batch
	end := start + st.batch
	if end > st.n {
		end = st.n
	}
	size := end - start
	cbx, cbt := st.bx, st.bt
	if size != st.batch {
		cbx, cbt = st.tailBx, st.tailBt
	}
	for bi := 0; bi < size; bi++ {
		src := st.order[start+bi]
		copy(cbx.Row(bi), st.x.Row(src))
		copy(cbt.Row(bi), st.target.Row(src))
	}
	return cbx, cbt
}

// applyUpdate advances the step counters and applies the solver update
// for the gradient currently in st.grad.
func (st *sgdState) applyUpdate() {
	m, cfg := st.m, st.m.cfg
	grad := st.grad
	st.step++
	switch cfg.Solver {
	case SGD:
		effLR := st.lr
		if cfg.LearningRate == InvScaling {
			effLR = cfg.LearningRateInit / math.Pow(float64(st.step), cfg.PowerT)
		}
		if cfg.Nesterov {
			// Nesterov look-ahead in the standard reformulation
			// (sklearn's): v ← μ·v − lr·∇; params += μ·v − lr·∇.
			velocity := st.velocity
			for i := range velocity {
				velocity[i] = cfg.Momentum*velocity[i] - effLR*grad[i]
				m.nw.params[i] += cfg.Momentum*velocity[i] - effLR*grad[i]
			}
		} else {
			velocity := st.velocity
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
		adamM, adamV := st.adamM, st.adamV
		for i := range adamM {
			adamM[i] = beta1*adamM[i] + (1-beta1)*grad[i]
			adamV[i] = beta2*adamV[i] + (1-beta2)*grad[i]*grad[i]
			m.nw.params[i] -= st.lr * (adamM[i] / b1c) / (math.Sqrt(adamV[i]/b2c) + eps)
		}
	}
}

// runEpoch shuffles, sweeps the minibatches and applies the solver
// update, returning the mean minibatch loss. Steady-state calls are
// allocation-free: minibatch buffers, the gradient vector and the
// network's forward/backward scratch are all reused.
func (st *sgdState) runEpoch() float64 {
	st.beginEpoch()
	var epochLoss float64
	nb := st.numBatches()
	for s := 0; s < nb; s++ {
		bx, bt := st.stepBatch(s)
		epochLoss += st.m.nw.lossGrad(bx, bt, st.m.cfg.Alpha, st.grad)
		st.applyUpdate()
	}
	return epochLoss / float64(nb)
}

// epochState is the per-model convergence bookkeeping carried across
// epochs — best loss/score, patience and the adaptive-lr stall counter —
// shared verbatim by the solo and lockstep (FitBatch) trainers so both
// stop at exactly the same epoch.
type epochState struct {
	bestLoss, bestVal        float64
	noImprove, adaptiveStall int
}

func newEpochState() epochState {
	return epochState{bestLoss: math.Inf(1), bestVal: math.Inf(-1)}
}

// observeEpoch records one epoch's mean minibatch loss, runs the
// convergence / early-stopping / adaptive-schedule logic and reports
// whether training should stop.
func (m *Model) observeEpoch(es *epochState, st *sgdState, valSet *dataset.Dataset, epochLoss float64) bool {
	cfg := m.cfg
	m.LossCurve = append(m.LossCurve, epochLoss)
	m.Epochs = len(m.LossCurve)

	// Convergence / early stopping bookkeeping.
	if valSet != nil {
		score := m.Score(valSet)
		if score > es.bestVal+cfg.Tol {
			es.bestVal = score
			es.noImprove = 0
		} else {
			es.noImprove++
		}
	} else {
		if epochLoss < es.bestLoss-cfg.Tol {
			es.bestLoss = epochLoss
			es.noImprove = 0
		} else {
			es.noImprove++
		}
	}
	// Adaptive schedule: halve-by-5 when the loss stalls twice in a row.
	if cfg.Solver == SGD && cfg.LearningRate == Adaptive {
		if len(m.LossCurve) >= 2 && epochLoss > m.LossCurve[len(m.LossCurve)-2]-cfg.Tol {
			es.adaptiveStall++
		} else {
			es.adaptiveStall = 0
		}
		if es.adaptiveStall >= 2 {
			st.lr /= 5
			es.adaptiveStall = 0
			if st.lr < 1e-6 {
				return true
			}
		}
	}
	return es.noImprove >= cfg.NIterNoChange
}

// fitStochastic runs the sgd/adam epoch loop with mini-batches, learning
// rate schedules, early stopping and the no-improvement convergence check.
func (m *Model) fitStochastic(x, target *mat.Dense, valSet *dataset.Dataset, r *rng.RNG) {
	cfg := m.cfg
	st := m.newSGDState(x, target, r)
	es := newEpochState()
	m.LossCurve = m.nw.ws.Floats(cfg.MaxIter)[:0]
	for epoch := 0; epoch < cfg.MaxIter; epoch++ {
		epochLoss := st.runEpoch()
		if m.observeEpoch(&es, st, valSet, epochLoss) {
			break
		}
	}
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
