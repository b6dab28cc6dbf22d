// Command benchpair measures a change against a base commit the way
// every performance claim in this repository is meant to be produced
// (choosing-metrics §8): it unpacks the base into a temporary directory,
// then runs the repository benchmark on both trees in alternating order
// — base first on even pairs, the working tree first on odd ones — with
// a new seed per pair, and prints per end-to-end metric both medians,
// both interquartile ranges, the shift of the median against the
// benchmark's bound, and in how many pairs the working tree won.
//
//	go run ./cmd/benchpair -base HEAD~1 -workload tenants-contended -pairs 10
//	make bench-pair BASE=HEAD~1 WORKLOAD=all PAIRS=10
//
// Each tree is benchmarked with its own copy of bench/, so -base must be
// a commit that has one. The working tree is used as it is on disk,
// committed or not.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json this tool reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the last line a driver-mode benchmark run prints.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "HEAD", "commit to compare the working tree against")
	workload := flag.String("workload", "all", "benchmark workload, or all")
	pairs := flag.Int("pairs", 10, "pairs of runs per workload")
	seconds := flag.Int("seconds", 30, "run length handed to the benchmark")
	seed := flag.Int("seed", 1, "seed of the first pair; pair i uses seed+i")
	flag.Parse()
	if err := run(*base, *workload, *pairs, *seconds, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(base, workload string, pairs, seconds, seed int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var workloads []string
	for _, w := range sp.Workloads {
		if workload == "all" || workload == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return fmt.Errorf("no workload %q in BENCHMARK.json", workload)
	}

	baseDir, err := os.MkdirTemp("", "benchpair-base-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(baseDir)
	unpack := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", base, baseDir)
	if out, err := unpack.CombinedOutput(); err != nil {
		return fmt.Errorf("unpacking %s: %v: %s", base, err, out)
	}

	trees := [2]string{baseDir, "."} // index 0 = base, 1 = working tree
	for _, w := range workloads {
		var samples [2]map[string][]float64
		var failed, attempted [2]int
		samples[0], samples[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < pairs; i++ {
			for _, side := range [2]int{i % 2, 1 - i%2} {
				res, err := bench(trees[side], w, seed+i, seconds)
				if err != nil {
					return fmt.Errorf("%s, pair %d, %s: %w", w, i, [2]string{"base", "head"}[side], err)
				}
				failed[side] += res.Failed
				attempted[side] += res.Attempted
				for name, m := range res.Metrics {
					samples[side][name] = append(samples[side][name], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "benchpair: %s pair %d/%d done\n", w, i+1, pairs)
		}
		fmt.Printf("\n%s — %d pairs, base %s, seeds %d..%d, %d s runs; failed base %d/%d, head %d/%d\n",
			w, pairs, base, seed, seed+pairs-1, seconds, failed[0], attempted[0], failed[1], attempted[1])
		fmt.Printf("%-20s %-31s %-31s %8s %6s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "Δmedian", "wins", "verdict")
		for _, m := range sp.EndToEnd {
			b, h := samples[0][m.Name], samples[1][m.Name]
			if len(b) != pairs || len(h) != pairs {
				fmt.Printf("%-20s missing from %d of %d runs\n", m.Name, 2*pairs-len(b)-len(h), 2*pairs)
				continue
			}
			c := compare(b, h, m.Better != "higher", m.Bound)
			fmt.Printf("%-20s %-31s %-31s %+7.1f%% %3d/%-2d  %s\n", m.Name,
				cell(c.baseMed, c.baseQ1, c.baseQ3, m.Unit), cell(c.headMed, c.headQ1, c.headQ3, m.Unit), 100*c.shift, c.wins, pairs, c.verdict)
		}
	}
	return nil
}

// comparison is one metric's paired samples summed up.
type comparison struct {
	baseQ1, baseMed, baseQ3 float64
	headQ1, headMed, headQ3 float64
	// shift is the head median's change against the base median, as a
	// fraction of it (+ is higher).
	shift float64
	// wins counts the pairs in which head beat base; a tie counts for
	// neither side.
	wins    int
	verdict string
}

// compare sums up the paired samples base[i], head[i] of one metric,
// lower being better unless lower is false, with the benchmark's bound
// on a worsening of the median. The verdict is "REGRESSION past the
// bound" when the median worsens by more than bound; "gain" when it
// improves, head wins at least nine pairs in ten and the medians are
// further apart than base's interquartile range; "unresolved: base
// spread exceeds the bound" when base's interquartile range is wider
// than bound of its median; "within bound" otherwise.
func compare(base, head []float64, lower bool, bound float64) comparison {
	var c comparison
	for i := range base {
		if head[i] != base[i] && (head[i] < base[i]) == lower {
			c.wins++
		}
	}
	c.baseQ1, c.baseMed, c.baseQ3 = quartiles(base)
	c.headQ1, c.headMed, c.headQ3 = quartiles(head)
	c.shift = (c.headMed - c.baseMed) / c.baseMed
	worse := c.shift
	if !lower {
		worse = -c.shift
	}
	c.verdict = "within bound"
	switch {
	case worse > bound:
		c.verdict = "REGRESSION past the bound"
	case worse < 0 && 10*c.wins >= 9*len(base) && math.Abs(c.headMed-c.baseMed) > c.baseQ3-c.baseQ1:
		c.verdict = "gain"
	case c.baseQ3-c.baseQ1 > bound*c.baseMed:
		c.verdict = "unresolved: base spread exceeds the bound"
	}
	return c
}

// bench runs one driver-mode benchmark in tree and parses its last line.
func bench(tree, workload string, seed, seconds int) (result, error) {
	cmd := exec.Command("go", "run", "-C", "bench", ".",
		"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = tree
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var res result
	if err != nil {
		return res, fmt.Errorf("%v: %s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("last line is not the result object: %w", err)
	}
	return res, nil
}

// quartiles returns the lower quartile, median and upper quartile of v
// by linear interpolation between order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		lo := int(x)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (x-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func cell(med, q1, q3 float64, unit string) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", med, q1, q3, unit)
}
