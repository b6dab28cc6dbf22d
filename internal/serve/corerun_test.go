package serve

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"enhancedbhpo/internal/core"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/search"
)

// TestServedJobMatchesCoreRun holds the one job rule: a served job and a
// core.Run of the same spec — data synthesized from dataset_seed, the
// search and the refit seeded by seed — are one computation, so they
// report the same best configuration, best score and test score, bit for
// bit. It covers every registered method, vanilla and enhanced, plus an F1
// and a regression job.
func TestServedJobMatchesCoreRun(t *testing.T) {
	var specs []JobSpec
	for _, method := range hpo.MethodNames() {
		for _, enhanced := range []bool{false, true} {
			specs = append(specs, JobSpec{Dataset: "australian", Scale: 0.2, Method: method, Enhanced: enhanced,
				NumHPs: 2, Iters: 4, Seed: 3, DatasetSeed: 3})
		}
	}
	specs = append(specs,
		JobSpec{Dataset: "australian", Scale: 0.2, Method: "sha", Enhanced: true, UseF1: true,
			NumHPs: 2, Iters: 4, Seed: 5, DatasetSeed: 2},
		JobSpec{Dataset: "kc-house", Scale: 0.1, Method: "hyperband", Enhanced: true,
			NumHPs: 2, Iters: 4, Seed: 4, DatasetSeed: 6})

	m := NewManager(Config{PoolSize: 2, MaxJobs: 2, MaxPending: len(specs)})
	t.Cleanup(func() { shutdown(t, m) })
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		jobs[i] = submitAs(t, m, spec, fmt.Sprintf("job-%d", i+1))
	}
	for i, spec := range specs {
		want := coreRun(t, spec)
		waitJob(t, m, jobs[i].ID, terminal, "terminal")
		got := jobs[i].Snapshot()
		name := spec.Method + "|" + spec.CacheScope()
		if got.Status != StatusDone {
			t.Errorf("%s: job ended %s (%s)", name, got.Status, got.Error)
			continue
		}
		if best := want.JSON().Best; !reflect.DeepEqual(got.BestConfig, best) {
			t.Errorf("%s: best config served %v, core.Run %v", name, got.BestConfig, best)
		}
		if math.Float64bits(*got.BestScore) != math.Float64bits(want.Search.BestScore) {
			t.Errorf("%s: best score served %v, core.Run %v", name, *got.BestScore, want.Search.BestScore)
		}
		if math.Float64bits(*got.TestScore) != math.Float64bits(want.TestScore) {
			t.Errorf("%s: test score served %v, core.Run %v", name, *got.TestScore, want.TestScore)
		}
	}
}

// coreRun runs spec in process, the way bhpo runs it.
func coreRun(t *testing.T, spec JobSpec) *core.Outcome {
	t.Helper()
	ds, err := dataset.SpecByName(spec.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := dataset.Synthesize(ds.Scaled(spec.Scale), spec.DatasetSeed)
	if err != nil {
		t.Fatal(err)
	}
	dataset.Standardize(train, test)
	space, err := search.TableIIISpace(spec.NumHPs)
	if err != nil {
		t.Fatal(err)
	}
	base := nn.DefaultConfig()
	base.MaxIter = spec.Iters
	base.LearningRateInit = 0.02
	variant := core.Vanilla
	if spec.Enhanced {
		variant = core.Enhanced
	}
	out, err := core.Run(train, test, core.Options{
		Method:      spec.Method,
		Variant:     variant,
		Space:       space,
		Base:        base,
		DatasetSeed: spec.DatasetSeed,
		UseF1:       spec.UseF1,
		RunOptions:  hpo.RunOptions{Seed: spec.Seed},
	})
	if err != nil {
		t.Fatalf("%s|%s: core.Run: %v", spec.Method, spec.CacheScope(), err)
	}
	return out
}
