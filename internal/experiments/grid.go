package experiments

import (
	"fmt"

	"enhancedbhpo/internal/core"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/stats"
)

// Every number of the paper's evaluation is the same object: a grid of
// (dataset, method or variant, sweep coordinate) cells, each run over
// Settings.Seeds seeds and reported as mean ± std. An experiment is a
// cell table plus a printer; the two runners below own everything in
// between — data loading, the seed loop, error wrapping, progress
// logging and aggregation — so a new row of any table is one more cell.

// Cell summarizes one grid entry across seeds. Measures an experiment
// does not report stay zero (CV cells carry no time, HPO cells no nDCG).
type Cell struct {
	Dataset string
	// Label names the compared thing: a method, a variant, a metric, a
	// fold allocation or an ablation knob.
	Label string
	// X is the sweep coordinate (subset ratio, noise rate, HP count,
	// knob value); 0 for experiments without a sweep.
	X float64
	// Runs is the number of seeds behind the means.
	Runs                int
	TrainMean, TrainStd float64
	TestMean, TestStd   float64
	NDCG, NDCGStd       float64
	// TimeMean and TimeStd are wall-clock seconds per run.
	TimeMean, TimeStd float64
}

// Grid is an experiment's cells in run order.
type Grid struct {
	Cells []Cell
}

// Cell returns the entry for (dataset, label, x), or nil.
func (g *Grid) Cell(dataset, label string, x float64) *Cell {
	for i := range g.Cells {
		if c := &g.Cells[i]; c.Dataset == dataset && c.Label == label && c.X == x {
			return c
		}
	}
	return nil
}

// Datasets returns the distinct dataset names in first-run order — the
// per-dataset blocks a printer walks.
func (g *Grid) Datasets() []string {
	var names []string
	for i, c := range g.Cells {
		if i == 0 || c.Dataset != g.Cells[i-1].Dataset {
			names = append(names, c.Dataset)
		}
	}
	return names
}

// hpoCell specifies one cell of an HPO experiment: one optimizer on one
// dataset, repeated over the seed indices 0..Seeds-1.
type hpoCell struct {
	dataset, label string
	x              float64
	method         core.Method
	variant        core.Variant
	// space is the configuration space; nil selects the paper's §IV-B
	// space, the first Settings.NumHPs hyperparameters of Table III.
	space *search.Space
	// The optimizer seed of seed index i is i*seedMul + seedAdd; the
	// constants are each experiment's own and fix its recorded numbers.
	seedMul, seedAdd uint64
	// fixedData synthesizes the data with seed 1 for every seed index
	// instead of index+1, so only the optimizer's randomness varies.
	fixedData bool
	// tune, when non-nil, adjusts the assembled options (bracket caps, …).
	tune func(*core.Options)
	// prepare, when non-nil, derives the training set the optimizer sees
	// from the loaded one (the test set stays clean).
	prepare func(train *dataset.Dataset, seed int) *dataset.Dataset
}

// name identifies the cell in progress and error messages.
func (c hpoCell) name() string {
	if c.x != 0 {
		return fmt.Sprintf("%s/%s@%v", c.dataset, c.label, c.x)
	}
	return c.dataset + "/" + c.label
}

// shaPair returns the comparison most single-dataset experiments run: c
// as SHA and as SHA+, two cells that differ in variant and label only.
func shaPair(vanilla, enhanced string, c hpoCell) []hpoCell {
	c.method = core.SHA
	v, e := c, c
	v.label, v.variant = vanilla, core.Vanilla
	e.label, e.variant = enhanced, core.Enhanced
	return []hpoCell{v, e}
}

// runHPOGrid runs every cell over every seed, in cell order, and returns
// one summary per cell plus the per-seed outcomes, for experiments that
// derive more than mean ± std from them. Each (dataset, data seed) is
// synthesized once per dataset block, not once per cell. Both runners
// resolve the settings' defaults themselves; an experiment calls
// WithDefaults only to read a setting while building its cells.
func (s Settings) runHPOGrid(exp string, cells []hpoCell) ([]Cell, [][]*core.Outcome, error) {
	s = s.WithDefaults()
	type split struct{ train, test *dataset.Dataset }
	loaded := map[uint64]split{}
	out := make([]Cell, len(cells))
	runs := make([][]*core.Outcome, len(cells))
	for i, c := range cells {
		if i > 0 && c.dataset != cells[i-1].dataset {
			// Cells come grouped by dataset; holding one dataset's
			// splits bounds memory at the paper's ten-dataset protocol.
			clear(loaded)
		}
		s.logf("%s: %s", exp, c.name())
		if c.space == nil {
			var err error
			if c.space, err = search.TableIIISpace(s.NumHPs); err != nil {
				return nil, nil, err
			}
		}
		var trains, tests, times []float64
		for seed := 0; seed < s.Seeds; seed++ {
			dataSeed := uint64(seed) + 1
			if c.fixedData {
				dataSeed = 1
			}
			d, ok := loaded[dataSeed]
			if !ok {
				var err error
				if d.train, d.test, err = s.loadDataset(c.dataset, dataSeed); err != nil {
					return nil, nil, fmt.Errorf("%s %s seed %d: %w", exp, c.name(), seed, err)
				}
				loaded[dataSeed] = d
			}
			train := d.train
			if c.prepare != nil {
				train = c.prepare(train, seed)
			}
			opts := core.Options{
				Method:     c.method,
				Variant:    c.variant,
				Space:      c.space,
				Base:       s.baseConfig(),
				MaxConfigs: s.MaxConfigs,
				Seed:       uint64(seed)*c.seedMul + c.seedAdd,
			}
			if c.tune != nil {
				c.tune(&opts)
			}
			o, err := core.Run(train, d.test, opts)
			if err != nil {
				return nil, nil, fmt.Errorf("%s %s seed %d: %w", exp, c.name(), seed, err)
			}
			runs[i] = append(runs[i], o)
			trains = append(trains, o.TrainScore)
			tests = append(tests, o.TestScore)
			times = append(times, o.TotalTime.Seconds())
		}
		cell := Cell{Dataset: c.dataset, Label: c.label, X: c.x, Runs: s.Seeds}
		cell.TrainMean, cell.TrainStd = stats.MeanStd(trains)
		cell.TestMean, cell.TestStd = stats.MeanStd(tests)
		cell.TimeMean, cell.TimeStd = stats.MeanStd(times)
		out[i] = cell
	}
	return out, runs, nil
}

// runCVGrid judges every cell on every dataset: per seed index one ground
// truth, one set of §III-A groups per distinct grouping recipe (seeded by
// groupSeed of the index), then each cell's ranking of the configurations.
func (s Settings) runCVGrid(exp string, datasets []string, cells []cvCell, groupSeed func(seed int) uint64) ([]Cell, error) {
	s = s.WithDefaults()
	var out []Cell
	for _, name := range datasets {
		s.logf("%s: %s", exp, name)
		accs := make([][]float64, len(cells))
		ndcgs := make([][]float64, len(cells))
		for seed := 0; seed < s.Seeds; seed++ {
			truth, err := s.buildTruth(name, uint64(seed)+1)
			if err != nil {
				return nil, fmt.Errorf("%s %s seed %d: %w", exp, name, seed, err)
			}
			built := map[grouping.Options]*grouping.Groups{}
			for i, c := range cells {
				var groups *grouping.Groups
				if c.groups != nil {
					if groups = built[*c.groups]; groups == nil {
						groups, err = grouping.Build(truth.train, *c.groups, rng.New(groupSeed(seed)))
						if err != nil {
							return nil, fmt.Errorf("%s %s/%s@%v seed %d: %w", exp, name, c.label, c.x, seed, err)
						}
						built[*c.groups] = groups
					}
				}
				acc, ndcg, err := s.runCVMethod(truth, c, groups, uint64(seed)*c.seedMul+c.seedAdd)
				if err != nil {
					return nil, fmt.Errorf("%s %s/%s@%v seed %d: %w", exp, name, c.label, c.x, seed, err)
				}
				accs[i] = append(accs[i], acc)
				ndcgs[i] = append(ndcgs[i], ndcg)
			}
		}
		for i, c := range cells {
			cell := Cell{Dataset: name, Label: c.label, X: c.x, Runs: s.Seeds}
			cell.TestMean, cell.TestStd = stats.MeanStd(accs[i])
			cell.NDCG, cell.NDCGStd = stats.MeanStd(ndcgs[i])
			out = append(out, cell)
		}
	}
	return out, nil
}
