// Package nn implements the multilayer-perceptron models the paper
// optimizes: classifier (softmax + cross-entropy) and regressor (identity +
// squared error), with the complete hyperparameter surface of Table III —
// hidden layer sizes, activation (logistic/tanh/relu), solver
// (lbfgs/sgd/adam), initial learning rate, batch size, learning-rate
// schedule (constant/invscaling/adaptive), momentum, and early stopping.
//
// The implementation deliberately mirrors the semantics of scikit-learn's
// MLPClassifier/MLPRegressor (the models used by the paper's experiments)
// closely enough that the hyperparameters have the same qualitative effect:
// lbfgs is a full-batch quasi-Newton method, sgd supports momentum and the
// three schedules, adam is the usual bias-corrected variant, and early
// stopping holds out a validation fraction.
package nn

import (
	"fmt"
)

// Activation selects a hidden-layer non-linearity.
type Activation int

const (
	// Logistic is the sigmoid activation 1/(1+e^-x).
	Logistic Activation = iota
	// Tanh is the hyperbolic tangent activation.
	Tanh
	// ReLU is max(0, x).
	ReLU
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Logistic:
		return "logistic"
	case Tanh:
		return "tanh"
	case ReLU:
		return "relu"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// ParseActivation converts a Table III activation name.
func ParseActivation(s string) (Activation, error) {
	switch s {
	case "logistic":
		return Logistic, nil
	case "tanh":
		return Tanh, nil
	case "relu":
		return ReLU, nil
	}
	return 0, fmt.Errorf("nn: unknown activation %q", s)
}

// Solver selects the weight optimizer.
type Solver int

const (
	// LBFGS is full-batch limited-memory BFGS.
	LBFGS Solver = iota
	// SGD is stochastic gradient descent with momentum and schedules.
	SGD
	// Adam is the adaptive-moment stochastic optimizer.
	Adam
)

// String implements fmt.Stringer.
func (s Solver) String() string {
	switch s {
	case LBFGS:
		return "lbfgs"
	case SGD:
		return "sgd"
	case Adam:
		return "adam"
	default:
		return fmt.Sprintf("Solver(%d)", int(s))
	}
}

// ParseSolver converts a Table III solver name.
func ParseSolver(s string) (Solver, error) {
	switch s {
	case "lbfgs":
		return LBFGS, nil
	case "sgd":
		return SGD, nil
	case "adam":
		return Adam, nil
	}
	return 0, fmt.Errorf("nn: unknown solver %q", s)
}

// Schedule selects the SGD learning-rate schedule.
type Schedule int

const (
	// Constant keeps the learning rate at LearningRateInit.
	Constant Schedule = iota
	// InvScaling decays the rate as lr_init / t^PowerT.
	InvScaling
	// Adaptive divides the rate by 5 whenever two consecutive epochs fail
	// to decrease the training loss by Tol.
	Adaptive
)

// String implements fmt.Stringer.
func (s Schedule) String() string {
	switch s {
	case Constant:
		return "constant"
	case InvScaling:
		return "invscaling"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// ParseSchedule converts a Table III learning-rate schedule name.
func ParseSchedule(s string) (Schedule, error) {
	switch s {
	case "constant":
		return Constant, nil
	case "invscaling":
		return InvScaling, nil
	case "adaptive":
		return Adaptive, nil
	}
	return 0, fmt.Errorf("nn: unknown schedule %q", s)
}

// Config is the full hyperparameter configuration of an MLP, covering every
// Table III dimension plus the usual fixed training knobs.
type Config struct {
	// HiddenLayerSizes lists the width of each hidden layer, e.g. {50, 50}.
	HiddenLayerSizes []int
	// Activation is the hidden-layer non-linearity.
	Activation Activation
	// Solver optimizes the weights.
	Solver Solver
	// LearningRateInit is the initial step size for sgd/adam.
	LearningRateInit float64
	// BatchSize is the mini-batch size for sgd/adam (capped at n).
	BatchSize int
	// LearningRate is the sgd schedule.
	LearningRate Schedule
	// Momentum is the sgd momentum coefficient.
	Momentum float64
	// Nesterov applies Nesterov's accelerated momentum instead of plain
	// momentum (scikit-learn's MLP default is true).
	Nesterov bool
	// EarlyStopping holds out ValidationFraction of the training data and
	// stops when the validation score stops improving.
	EarlyStopping bool

	// MaxIter bounds training epochs (sgd/adam) or iterations (lbfgs).
	MaxIter int
	// Alpha is the L2 regularization strength.
	Alpha float64
	// Tol is the improvement tolerance for convergence checks.
	Tol float64
	// ValidationFraction is the early-stopping holdout fraction.
	ValidationFraction float64
	// NIterNoChange is the patience, in epochs, for early stopping and the
	// adaptive schedule.
	NIterNoChange int
	// PowerT is the invscaling exponent.
	PowerT float64
	// Seed drives weight init and batch shuffling.
	Seed uint64
	// KernelWorkers is ignored: a fit's matmuls run on its own
	// goroutine. It stays only because the benchmark module sets it,
	// until ROADMAP item 4 deletes it.
	KernelWorkers int
}

// DefaultConfig returns a configuration with scikit-learn-like defaults
// (hidden layer of 100 is shrunk to 30 to suit the repo's laptop-scale
// simulated datasets).
func DefaultConfig() Config {
	return Config{
		HiddenLayerSizes:   []int{30},
		Activation:         ReLU,
		Solver:             Adam,
		LearningRateInit:   0.001,
		BatchSize:          32,
		LearningRate:       Constant,
		Momentum:           0.9,
		Nesterov:           true,
		EarlyStopping:      false,
		MaxIter:            60,
		Alpha:              1e-4,
		Tol:                1e-4,
		ValidationFraction: 0.1,
		NIterNoChange:      8,
		PowerT:             0.5,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if len(c.HiddenLayerSizes) == 0 {
		return fmt.Errorf("nn: no hidden layers")
	}
	for _, h := range c.HiddenLayerSizes {
		if h <= 0 {
			return fmt.Errorf("nn: hidden layer size %d <= 0", h)
		}
	}
	if c.LearningRateInit <= 0 {
		return fmt.Errorf("nn: learning rate %v <= 0", c.LearningRateInit)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("nn: batch size %d <= 0", c.BatchSize)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("nn: momentum %v out of [0,1)", c.Momentum)
	}
	if c.MaxIter <= 0 {
		return fmt.Errorf("nn: max iter %d <= 0", c.MaxIter)
	}
	if c.ValidationFraction <= 0 || c.ValidationFraction >= 1 {
		return fmt.Errorf("nn: validation fraction %v out of (0,1)", c.ValidationFraction)
	}
	if c.NIterNoChange <= 0 {
		return fmt.Errorf("nn: n_iter_no_change %d <= 0", c.NIterNoChange)
	}
	return nil
}
