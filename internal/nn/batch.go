package nn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"enhancedbhpo/internal/dataset"
)

// FitBatch, BatchItem and BatchStats exist only because the frozen
// benchmark in bench/ still calls FitBatch (nn.fitbatch2_over_solo2);
// nothing in the program does. They go with ROADMAP item 4, the
// benchmark change that drops that metric.

// BatchItem is one model's training input for FitBatch.
type BatchItem struct {
	Train *dataset.Dataset
	Cfg   Config
}

// BatchStats is empty: every item is a solo Fit, so nothing is fused.
type BatchStats struct{}

// FitBatch trains every item with Fit, on at most workers goroutines
// (0 = GOMAXPROCS), so each model is the one a solo Fit of its item
// returns. On failure it returns the lowest-indexed failing item's
// error, wrapped with that index, and no models.
func FitBatch(items []BatchItem, workers int) ([]*Model, BatchStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	models := make([]*Model, len(items))
	errs := make([]error, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(items)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(items); i = int(next.Add(1) - 1) {
				models[i], errs[i] = Fit(items[i].Train, items[i].Cfg)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, BatchStats{}, fmt.Errorf("nn: batch item %d: %w", i, err)
		}
	}
	return models, BatchStats{}, nil
}
