package nn

import (
	"math"
	"testing"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

// numericalGrad approximates dLoss/dParams by central differences.
func numericalGrad(nw *network, x, target *mat.Dense, alpha float64) []float64 {
	const h = 1e-6
	grad := make([]float64, len(nw.params))
	scratch := make([]float64, len(nw.params))
	for i := range nw.params {
		orig := nw.params[i]
		nw.params[i] = orig + h
		lp := nw.lossGrad(x, target, alpha, nw.weightSq(), scratch)
		nw.params[i] = orig - h
		lm := nw.lossGrad(x, target, alpha, nw.weightSq(), scratch)
		nw.params[i] = orig
		grad[i] = (lp - lm) / (2 * h)
	}
	return grad
}

func gradCheck(t *testing.T, act Activation, softmax bool) {
	t.Helper()
	r := rng.New(42)
	nw := newNetwork(nil, 4, []int{5, 3}, 2, act, softmax, r)
	n := 7
	x := mat.NewDense(n, 4)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			x.Set(i, j, r.Norm())
		}
	}
	target := mat.NewDense(n, 2)
	if softmax {
		for i := 0; i < n; i++ {
			target.Set(i, r.Intn(2), 1)
		}
	} else {
		for i := 0; i < n; i++ {
			target.Set(i, 0, r.Norm())
			target.Set(i, 1, r.Norm())
		}
	}
	analytic := make([]float64, len(nw.params))
	nw.lossGrad(x, target, 0.01, nw.weightSq(), analytic)
	numeric := numericalGrad(nw, x, target, 0.01)
	for i := range analytic {
		diff := math.Abs(analytic[i] - numeric[i])
		scale := math.Max(1, math.Abs(numeric[i]))
		if diff/scale > 1e-4 {
			t.Fatalf("param %d: analytic %v vs numeric %v", i, analytic[i], numeric[i])
		}
	}
}

func TestGradCheckLogisticSoftmax(t *testing.T) { gradCheck(t, Logistic, true) }
func TestGradCheckTanhSoftmax(t *testing.T)     { gradCheck(t, Tanh, true) }
func TestGradCheckReLUSoftmax(t *testing.T)     { gradCheck(t, ReLU, true) }
func TestGradCheckTanhRegression(t *testing.T)  { gradCheck(t, Tanh, false) }
func TestGradCheckReLURegression(t *testing.T)  { gradCheck(t, ReLU, false) }

// backpropMulT is backprop with the delta propagated by mat.MulT against
// the weights as stored: the reference the packed Wᵀ is held to.
func backpropMulT(nw *network, x, target *mat.Dense, alpha float64, grad []float64) {
	n := x.Rows()
	acts := nw.scratchFor(n).acts
	delta := mat.NewDense(n, nw.dims[nw.layers()])
	copy(delta.Data(), acts[nw.layers()].Data())
	delta.Sub(target)
	delta.Scale(1 / float64(n))
	for l := nw.layers() - 1; l >= 0; l-- {
		gw := mat.NewDense(nw.dims[l], nw.dims[l+1])
		mat.TMul(gw, acts[l], delta)
		w := nw.weights(l)
		mat.FoldL2(grad[nw.wOff[l]:nw.wOff[l]+len(w)], gw.Data(), w, alpha, float64(n))
		mat.ColSumsInto(grad[nw.bOff[l]:nw.bOff[l]+nw.dims[l+1]], delta)
		if l == 0 {
			break
		}
		prev := mat.NewDense(n, nw.dims[l])
		mat.MulT(prev, delta, nw.weightMat(l))
		applyActivationDeriv(prev, acts[l], nw.activation)
		delta = prev
	}
}

// TestBackpropPackedWTMatchesMulT holds backprop's gradient, whose delta
// runs through the packed Wᵀ and mat.Mul, to the gradient through
// mat.MulT, bit for bit: every activation, the 2- and 6-class heads and
// the 1-output regression head, one and two hidden layers, over 13 rows
// (a row remainder after the 4-row tiles) with widths that leave column
// remainders too.
func TestBackpropPackedWTMatchesMulT(t *testing.T) {
	const rows, features = 13, 11
	for _, act := range []Activation{Logistic, Tanh, ReLU} {
		for _, head := range []struct {
			name    string
			outputs int
			softmax bool
		}{{"2-class", 2, true}, {"6-class", 6, true}, {"regression", 1, false}} {
			for _, hidden := range [][]int{{9}, {10, 7}} {
				r := rng.New(uint64(len(hidden)*100 + head.outputs))
				nw := newNetwork(nil, features, hidden, head.outputs, act, head.softmax, r.Split(1))
				x := mat.NewDense(rows, features)
				for i, xd := 0, x.Data(); i < len(xd); i++ {
					xd[i] = r.Norm()
				}
				target := mat.NewDense(rows, head.outputs)
				for i := 0; i < rows; i++ {
					if head.softmax {
						target.Set(i, r.Intn(head.outputs), 1)
					} else {
						target.Set(i, 0, r.Norm())
					}
				}
				got := make([]float64, len(nw.params))
				nw.lossGrad(x, target, 0.01, nw.weightSq(), got)
				want := make([]float64, len(nw.params))
				backpropMulT(nw, x, target, 0.01, want)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s %s %v: grad[%d] = %x, want %x", act, head.name, hidden, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// easyClassification builds a well-separated 2-class problem.
func easyClassification(n int, seed uint64) *dataset.Dataset {
	r := rng.New(seed)
	x := mat.NewDense(n, 2)
	class := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		class[i] = c
		shift := -2.0
		if c == 1 {
			shift = 2.0
		}
		x.Set(i, 0, shift+r.Norm()*0.5)
		x.Set(i, 1, -shift+r.Norm()*0.5)
	}
	return &dataset.Dataset{Name: "easy", Kind: dataset.Classification, X: x, Class: class, NumClasses: 2}
}

func easyRegression(n int, seed uint64) *dataset.Dataset {
	r := rng.New(seed)
	x := mat.NewDense(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b, c := r.Norm(), r.Norm(), r.Norm()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		x.Set(i, 2, c)
		y[i] = 2*a - b + 0.5*c + r.Norm()*0.05
	}
	return &dataset.Dataset{Name: "easyreg", Kind: dataset.Regression, X: x, Target: y}
}

func TestFitSolversLearnClassification(t *testing.T) {
	train := easyClassification(200, 1)
	test := easyClassification(100, 2)
	for _, solver := range []Solver{SGD, Adam, LBFGS} {
		cfg := DefaultConfig()
		cfg.Solver = solver
		cfg.HiddenLayerSizes = []int{8}
		cfg.MaxIter = 80
		cfg.LearningRateInit = 0.05
		if solver == Adam {
			cfg.LearningRateInit = 0.01
		}
		cfg.Seed = 7
		m, err := Fit(train, cfg)
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		if acc := m.Score(test); acc < 0.95 {
			t.Errorf("%v: test accuracy %.3f < 0.95", solver, acc)
		}
	}
}

func TestFitSolversLearnRegression(t *testing.T) {
	train := easyRegression(300, 3)
	test := easyRegression(150, 4)
	for _, solver := range []Solver{SGD, Adam, LBFGS} {
		cfg := DefaultConfig()
		cfg.Solver = solver
		cfg.HiddenLayerSizes = []int{16}
		cfg.Activation = Tanh
		cfg.MaxIter = 120
		cfg.LearningRateInit = 0.02
		if solver == Adam {
			cfg.LearningRateInit = 0.01
		}
		cfg.Seed = 7
		m, err := Fit(train, cfg)
		if err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		if r2 := m.Score(test); r2 < 0.8 {
			t.Errorf("%v: test R2 %.3f < 0.8", solver, r2)
		}
	}
}

func TestFitDeterministic(t *testing.T) {
	train := easyClassification(100, 5)
	cfg := DefaultConfig()
	cfg.Seed = 99
	cfg.MaxIter = 10
	m1, err := Fit(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.LossCurve) != len(m2.LossCurve) {
		t.Fatalf("loss curve lengths differ: %d vs %d", len(m1.LossCurve), len(m2.LossCurve))
	}
	for i := range m1.LossCurve {
		if m1.LossCurve[i] != m2.LossCurve[i] {
			t.Fatalf("loss curves diverge at %d: %v vs %v", i, m1.LossCurve[i], m2.LossCurve[i])
		}
	}
}

func TestEarlyStoppingStopsSooner(t *testing.T) {
	train := easyClassification(300, 6)
	base := DefaultConfig()
	base.MaxIter = 150
	base.Seed = 3
	base.LearningRateInit = 0.02
	base.NIterNoChange = 5
	withES := base
	withES.EarlyStopping = true
	m1, err := Fit(train, base)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(train, withES)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Epochs > m1.Epochs {
		t.Errorf("early stopping ran %d epochs, plain run %d", m2.Epochs, m1.Epochs)
	}
	if m2.Score(train) < 0.9 {
		t.Errorf("early-stopped model underfits: %.3f", m2.Score(train))
	}
}

func TestNesterovVsPlainMomentum(t *testing.T) {
	train := easyClassification(200, 12)
	base := DefaultConfig()
	base.Solver = SGD
	base.LearningRateInit = 0.05
	base.MaxIter = 40
	base.Seed = 13
	nesterov := base
	nesterov.Nesterov = true
	plain := base
	plain.Nesterov = false
	m1, err := Fit(train, nesterov)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(train, plain)
	if err != nil {
		t.Fatal(err)
	}
	// Both learn; the updates genuinely differ.
	if m1.Score(train) < 0.9 || m2.Score(train) < 0.9 {
		t.Fatalf("underfit: nesterov %v plain %v", m1.Score(train), m2.Score(train))
	}
	same := true
	for i := range m1.LossCurve {
		if i < len(m2.LossCurve) && m1.LossCurve[i] != m2.LossCurve[i] {
			same = false
			break
		}
	}
	if same && len(m1.LossCurve) == len(m2.LossCurve) {
		t.Fatal("nesterov and plain momentum produced identical training")
	}
}

func TestSchedulesRun(t *testing.T) {
	train := easyClassification(120, 7)
	for _, sch := range []Schedule{Constant, InvScaling, Adaptive} {
		cfg := DefaultConfig()
		cfg.Solver = SGD
		cfg.LearningRate = sch
		cfg.LearningRateInit = 0.05
		cfg.MaxIter = 40
		cfg.Seed = 11
		m, err := Fit(train, cfg)
		if err != nil {
			t.Fatalf("%v: %v", sch, err)
		}
		if acc := m.Score(train); acc < 0.9 {
			t.Errorf("%v: train accuracy %.3f < 0.9", sch, acc)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no hidden layers", func(c *Config) { c.HiddenLayerSizes = nil }},
		{"zero width", func(c *Config) { c.HiddenLayerSizes = []int{0} }},
		{"bad lr", func(c *Config) { c.LearningRateInit = 0 }},
		{"bad batch", func(c *Config) { c.BatchSize = 0 }},
		{"bad momentum", func(c *Config) { c.Momentum = 1 }},
		{"bad max iter", func(c *Config) { c.MaxIter = 0 }},
		{"bad val fraction", func(c *Config) { c.ValidationFraction = 1 }},
		{"bad patience", func(c *Config) { c.NIterNoChange = 0 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestParsers(t *testing.T) {
	for _, s := range []string{"logistic", "tanh", "relu"} {
		a, err := ParseActivation(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != s {
			t.Errorf("activation round-trip %q -> %q", s, a.String())
		}
	}
	for _, s := range []string{"lbfgs", "sgd", "adam"} {
		v, err := ParseSolver(s)
		if err != nil {
			t.Fatal(err)
		}
		if v.String() != s {
			t.Errorf("solver round-trip %q -> %q", s, v.String())
		}
	}
	for _, s := range []string{"constant", "invscaling", "adaptive"} {
		v, err := ParseSchedule(s)
		if err != nil {
			t.Fatal(err)
		}
		if v.String() != s {
			t.Errorf("schedule round-trip %q -> %q", s, v.String())
		}
	}
	if _, err := ParseActivation("gelu"); err == nil {
		t.Error("expected error for unknown activation")
	}
	if _, err := ParseSolver("rmsprop"); err == nil {
		t.Error("expected error for unknown solver")
	}
	if _, err := ParseSchedule("cosine"); err == nil {
		t.Error("expected error for unknown schedule")
	}
}

func TestPredictProbaRowsSumToOne(t *testing.T) {
	train := easyClassification(80, 8)
	cfg := DefaultConfig()
	cfg.MaxIter = 10
	cfg.Seed = 1
	m, err := Fit(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acts := m.nw.forwardPass(train.X)
	proba := acts[len(acts)-1]
	for i := 0; i < proba.Rows(); i++ {
		row := proba.Row(i)
		var sum float64
		for _, p := range row {
			if p < 0 || p > 1 {
				t.Fatalf("row %d: probability %v out of [0,1]", i, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d: probabilities sum to %v", i, sum)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	train := easyClassification(60, 9)
	cfg := DefaultConfig()
	cfg.MaxIter = 5
	m, err := Fit(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertPanics(t, "target prediction on classifier", func() { m.predictRegInto(make([]float64, train.Len()), train) })

	reg := easyRegression(60, 10)
	cfgR := DefaultConfig()
	cfgR.MaxIter = 5
	mr, err := Fit(reg, cfgR)
	if err != nil {
		t.Fatal(err)
	}
	assertPanics(t, "class prediction on regressor", func() { mr.predictInto(make([]int, reg.Len()), reg) })
	assertPanics(t, "ScoreF1 on regressor", func() { mr.ScoreF1(reg) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
