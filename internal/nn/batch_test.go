package nn

import (
	"fmt"
	"strings"
	"testing"

	"enhancedbhpo/internal/dataset"
)

// batchParityItems builds a deliberately heterogeneous group: different
// solvers, schedules, depths, widths, activations, batch sizes, dataset
// sizes/kinds, epoch counts and early-stopping settings, so the fits
// that share a FitBatch finish at different times.
func batchParityItems() []BatchItem {
	mk := func(train *dataset.Dataset, mut func(*Config)) BatchItem {
		cfg := DefaultConfig()
		cfg.MaxIter = 12
		cfg.HiddenLayerSizes = []int{8}
		cfg.BatchSize = 16
		mut(&cfg)
		return BatchItem{Train: train, Cfg: cfg}
	}
	return []BatchItem{
		mk(easyClassification(90, 11), func(c *Config) {
			c.Solver = SGD
			c.LearningRate = Constant
			c.LearningRateInit = 0.05
			c.Seed = 1
		}),
		mk(easyClassification(57, 12), func(c *Config) {
			c.Solver = Adam
			c.HiddenLayerSizes = []int{10, 6}
			c.Activation = Tanh
			c.BatchSize = 13
			c.MaxIter = 9
			c.Seed = 2
		}),
		mk(easyRegression(64, 13), func(c *Config) {
			c.Solver = SGD
			c.LearningRate = InvScaling
			c.Nesterov = false
			c.LearningRateInit = 0.02
			c.BatchSize = 32
			c.Seed = 3
		}),
		mk(easyClassification(120, 14), func(c *Config) {
			c.Solver = Adam
			c.EarlyStopping = true
			c.NIterNoChange = 3
			c.Activation = Logistic
			c.Seed = 4
		}),
		mk(easyRegression(40, 15), func(c *Config) {
			c.Solver = SGD
			c.LearningRate = Adaptive
			c.LearningRateInit = 0.03
			c.HiddenLayerSizes = []int{5, 5, 5}
			c.BatchSize = 7
			c.MaxIter = 15
			c.Seed = 5
		}),
		mk(easyClassification(75, 16), func(c *Config) {
			c.Solver = LBFGS
			c.HiddenLayerSizes = []int{7, 4}
			c.Seed = 6
		}),
	}
}

func assertModelBitwise(t *testing.T, label string, got, want *Model) {
	t.Helper()
	if got.Epochs != want.Epochs {
		t.Fatalf("%s: epochs %d != solo %d", label, got.Epochs, want.Epochs)
	}
	if len(got.LossCurve) != len(want.LossCurve) {
		t.Fatalf("%s: loss curve length %d != solo %d", label, len(got.LossCurve), len(want.LossCurve))
	}
	for e := range want.LossCurve {
		if got.LossCurve[e] != want.LossCurve[e] {
			t.Fatalf("%s: epoch %d loss %x != solo %x (not bitwise identical)",
				label, e, got.LossCurve[e], want.LossCurve[e])
		}
	}
	for i := range want.nw.params {
		if got.nw.params[i] != want.nw.params[i] {
			t.Fatalf("%s: param %d = %x, want %x (not bitwise identical)",
				label, i, got.nw.params[i], want.nw.params[i])
		}
	}
}

// TestFitBatchMatchesFitBitwise pins FitBatch to solo training: the
// heterogeneous items train concurrently, several of them on one shared
// dataset, and every model is bitwise-identical (params, loss curve,
// epoch count) to a solo Fit of the same item, for any worker cap and
// any grouping of the items.
func TestFitBatchMatchesFitBitwise(t *testing.T) {
	items := batchParityItems()
	// Two more fits of the first item's dataset with other seeds, so
	// concurrent fits read one dataset.
	for seed := uint64(7); seed <= 8; seed++ {
		it := items[0]
		it.Cfg.Seed = seed
		items = append(items, it)
	}
	solo := make([]*Model, len(items))
	for i, it := range items {
		m, err := Fit(it.Train, it.Cfg)
		if err != nil {
			t.Fatalf("solo fit %d: %v", i, err)
		}
		solo[i] = m
	}
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			models, _, err := FitBatch(items, workers)
			if err != nil {
				t.Fatalf("FitBatch: %v", err)
			}
			for i := range items {
				assertModelBitwise(t, fmt.Sprintf("item %d workers=%d", i, workers), models[i], solo[i])
			}
		})
	}
	// A sub-group and a single-item batch reproduce the same models.
	sub, _, err := FitBatch(items[1:3], 3)
	if err != nil {
		t.Fatalf("sub-group FitBatch: %v", err)
	}
	assertModelBitwise(t, "sub item 1", sub[0], solo[1])
	assertModelBitwise(t, "sub item 2", sub[1], solo[2])
	one, _, err := FitBatch(items[:1], 0)
	if err != nil {
		t.Fatalf("single-item FitBatch: %v", err)
	}
	assertModelBitwise(t, "single item", one[0], solo[0])
}

// TestFitBatchRejections pins the validation surface: an invalid item
// fails the batch with its index, and an empty batch is a no-op.
func TestFitBatchRejections(t *testing.T) {
	models, _, err := FitBatch(nil, 0)
	if err != nil || len(models) != 0 {
		t.Fatalf("empty batch: %v %v", models, err)
	}
	good := BatchItem{Train: easyClassification(30, 9), Cfg: DefaultConfig()}
	bad := good
	bad.Cfg.MaxIter = -1
	if _, _, err := FitBatch([]BatchItem{good, bad}, 0); err == nil {
		t.Fatal("FitBatch accepted an invalid config")
	} else if !strings.Contains(err.Error(), "batch item 1:") {
		t.Fatalf("error %q does not name item 1", err)
	}
	tiny := BatchItem{Train: easyClassification(1, 9), Cfg: DefaultConfig()}
	if _, _, err := FitBatch([]BatchItem{tiny}, 0); err == nil {
		t.Fatal("FitBatch accepted a 1-row dataset")
	}
}
