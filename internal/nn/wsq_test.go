package nn

import (
	"fmt"
	"math"
	"testing"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

// TestStepsCarryWeightSq trains every solver under every activation on
// both tasks and holds the Σw′² the steps carry to a fresh chain over
// the weight blocks, bit for bit. sgd with plain and Nesterov momentum
// and adam run epoch by epoch over 37 rows, in batches of 8 (a 5-row
// tail ends every epoch) and in one batch of all 37 (every step ends an
// epoch); after each epoch the sum the last step carried must equal
// weightSq. lbfgs, whose every trial point carries its sum into the
// loss, must match fitLBFGSOracle — which walks the weights for every
// loss — on parameters and loss curve; on inputs scaled up so the first
// trials overshoot, the cases must between them reject an Armijo trial
// and a curvature pair.
func TestStepsCarryWeightSq(t *testing.T) {
	type solver struct {
		name     string
		solver   Solver
		nesterov bool
	}
	solvers := []solver{{"sgd", SGD, false}, {"sgd/nesterov", SGD, true}, {"adam", Adam, false}, {"lbfgs", LBFGS, false}}
	armijoRejected, pairsRejected := 0, 0
	for _, s := range solvers {
		for _, act := range []Activation{Logistic, Tanh, ReLU} {
			for _, kind := range []dataset.Kind{dataset.Classification, dataset.Regression} {
				cfg := DefaultConfig()
				cfg.Solver = s.solver
				cfg.Nesterov = s.nesterov
				cfg.Activation = act
				cfg.HiddenLayerSizes = []int{9, 5}
				cfg.MaxIter = 15
				cfg.Alpha = 0.01
				train := easyClassification(37, 3)
				if kind == dataset.Regression {
					train = easyRegression(37, 4)
				}
				if s.solver == LBFGS {
					label := fmt.Sprintf("%s %s %s", s.name, act, kind)
					// Large inputs make the first steps overshoot.
					mat.Scale(40, train.X.Data())
					got, x, target := stepModel(train, cfg, rng.New(77))
					got.fitLBFGS(x, target)
					want, _, _ := stepModel(train, cfg, rng.New(77))
					a, p := want.fitLBFGSOracle(x, target)
					armijoRejected += a
					pairsRejected += p
					assertModelBitwise(t, label, got, want)
					continue
				}
				for _, batch := range []int{8, 37} {
					label := fmt.Sprintf("%s %s %s batch %d", s.name, act, kind, batch)
					cfg.BatchSize = batch
					r := rng.New(77)
					m, x, target := stepModel(train, cfg, r)
					st := m.newSGDState(x, target, r.Split(3))
					for epoch := 1; epoch <= cfg.MaxIter; epoch++ {
						st.runEpoch()
						if want := m.nw.weightSq(); math.Float64bits(st.wsq) != math.Float64bits(want) {
							t.Fatalf("%s: epoch %d carried Σw² %x, a fresh chain reads %x", label, epoch, math.Float64bits(st.wsq), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
	t.Logf("L-BFGS: %d Armijo trials and %d curvature pairs rejected", armijoRejected, pairsRejected)
	if armijoRejected == 0 {
		t.Error("no L-BFGS Armijo trial was rejected")
	}
	if pairsRejected == 0 {
		t.Error("no L-BFGS curvature pair was rejected")
	}
}

// stepModel builds the model FitIn would train on train, on the heap,
// without training it.
func stepModel(train *dataset.Dataset, cfg Config, r *rng.RNG) (*Model, *mat.Dense, *mat.Dense) {
	softmax := train.Kind == dataset.Classification
	outputs := 1
	if softmax {
		outputs = train.NumClasses
	}
	nw := newNetwork(nil, train.Features(), cfg.HiddenLayerSizes, outputs, cfg.Activation, softmax, r.Split(1))
	m := &Model{cfg: cfg, nw: nw, kind: train.Kind, numClasses: train.NumClasses}
	return m, train.X, targetMatrix(nil, train)
}
