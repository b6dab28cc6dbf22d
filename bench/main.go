// Command bench is the repository's benchmark: four round-based
// workloads measured end to end against real bhpod/bhpoctl processes, and
// a traced run that breaks the same work down layer by layer. See
// README.md in this directory.
//
//	go run -C bench . --workload solo-paper --seed 1 --seconds 30 --trace 0
//	go run -C bench . -all          every metric of every workload, with units
//	go run -C bench . -traced       the per-layer run of every workload
//	go run -C bench . -selfcheck    run everything twice, compare within bounds
//	go run -C bench . -update-golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// benchSpec is BENCHMARK.json, the benchmark's frozen contract: metric
// names, units and bounds are read from it so the program and the file
// cannot drift apart.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*benchSpec, error) {
	dir, err := findBenchDir()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(filepath.Dir(dir), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// toReport keeps exactly the metrics the contract lists, with its units.
// A listed metric the run did not produce makes the report incorrect.
func toReport(specs []metricSpec, values map[string]float64, correct bool, attempted, failed int) report {
	r := report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: metric %s was not measured\n", m.Name)
			r.Correct = false
			v = 0
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return r
}

func printTable(title string, r report) {
	fmt.Printf("== %s (correct=%v attempted=%d failed=%d)\n", title, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "", "workload to run (driver mode)")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 0, "measuring time of one run (0 = run_seconds of BENCHMARK.json)")
		traceMode = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced per-layer run")
		traced    = flag.Bool("traced", false, "run the traced per-layer run of every workload and print it")
		all       = flag.Bool("all", false, "run every workload end to end and traced; print every metric with its unit")
		selfcheck = flag.Bool("selfcheck", false, "run the whole benchmark twice and fail if any end-to-end metric differs by more than its bound")
		short     = flag.Bool("short", false, "two rounds of quarter job lists (what go test runs)")
		update    = flag.Bool("update-golden", false, "record every job's outcome into golden.json instead of checking it")
		prof      = flag.Bool("pprof", false, "traced run: save one CPU profile per workload to out/<workload>.pprof")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	opt := options{seed: *seed, seconds: *seconds, short: *short, updateGolden: *update}
	if opt.seconds <= 0 {
		opt.seconds = float64(spec.RunSeconds)
	}
	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer h.close()
	code, err := dispatch(h, spec, opt, *name, *traceMode, *traced, *all, *selfcheck, *prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		h.close()
		return 1
	}
	return code
}

func dispatch(h *harness, spec *benchSpec, opt options, name string, traceMode int, traced, all, selfcheck, prof bool) (int, error) {
	switch {
	case selfcheck:
		return runSelfcheck(h, spec, opt)
	case opt.updateGolden:
		for _, w := range workloads {
			if name != "" && name != w.name {
				continue
			}
			res, err := runE2E(h, w, opt)
			if err != nil {
				return 1, err
			}
			fmt.Printf("%s: recorded %d jobs\n", w.name, res.attempted)
		}
		return 0, nil
	case all || traced:
		ok := true
		for _, w := range workloads {
			if name != "" && name != w.name {
				continue
			}
			if all {
				r, _, err := e2eReport(h, spec, w, opt)
				if err != nil {
					return 1, err
				}
				printTable(w.name+" end to end", r)
				ok = ok && r.Correct
			}
			r, err := tracedReport(h, spec, w, opt, prof)
			if err != nil {
				return 1, err
			}
			printTable(w.name+" per layer", r)
			ok = ok && r.Correct
		}
		if !ok {
			return 1, nil
		}
		return 0, nil
	}
	w := workloadByName(name)
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	var r report
	var err error
	if traceMode == 1 {
		r, err = tracedReport(h, spec, w, opt, prof)
	} else {
		r, _, err = e2eReport(h, spec, w, opt)
	}
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	return 0, nil
}

// e2eReport runs a workload end to end and renders the contract's
// end-to-end metrics. Failure reasons and the noise ratio go to stderr.
func e2eReport(h *harness, spec *benchSpec, w *workload, opt options) (report, *runResult, error) {
	res, err := runE2E(h, w, opt)
	if err != nil {
		return report{}, nil, err
	}
	for _, n := range res.notes {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, n)
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d rounds, noise ratio %.3f (median round / fastest round)\n", w.name, len(res.rounds), res.noise)
	return toReport(spec.EndToEnd, res.metrics, res.correct, res.attempted, res.failed), res, nil
}
