// Command experiments regenerates the paper's tables and figures on the
// simulated datasets.
//
// Usage:
//
//	experiments -exp <name>|cv|hpo|all \
//	    [-scale 0.35] [-seeds 3] [-configs 162] [-hps 4] [-iters 20] \
//	    [-datasets a9a,usps] [-fast] [-v] [-out dir]
//
// The names are those of experiments.Registry (-help lists them). The
// defaults run a laptop-scale protocol; -fast shrinks everything for a
// quick smoke pass, and raising -scale/-seeds/-configs approaches the
// paper's full protocol.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"enhancedbhpo/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: "+strings.Join(experiments.Names(), ", "))
		scale    = flag.Float64("scale", 0, "dataset scale factor (0 = default 0.35)")
		seeds    = flag.Int("seeds", 0, "number of random seeds (0 = default 3; paper uses 5)")
		configs  = flag.Int("configs", 0, "max configurations for HPO experiments (0 = default 162)")
		hps      = flag.Int("hps", 0, "number of Table III hyperparameters (0 = default 4)")
		iters    = flag.Int("iters", 0, "MLP training epochs (0 = default 20)")
		datasets = flag.String("datasets", "", "comma-separated dataset subset (empty = experiment defaults)")
		fast     = flag.Bool("fast", false, "use the fast smoke settings")
		verbose  = flag.Bool("v", false, "log per-dataset progress to stderr")
		outDir   = flag.String("out", "", "also write each experiment's output to <dir>/<exp>.txt")
	)
	flag.Parse()

	s := experiments.Settings{
		Scale:      *scale,
		Seeds:      *seeds,
		MaxConfigs: *configs,
		NumHPs:     *hps,
		MaxIter:    *iters,
	}
	if *fast {
		s = experiments.FastSettings()
	}
	if *verbose {
		s.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *datasets != "" {
		s.Datasets = strings.Split(*datasets, ",")
	}

	if err := run(os.Stdout, *exp, s, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run resolves exp in the registry before touching the file system, then
// runs each selected experiment and prints it to stdout, followed by a
// blank line.
func run(stdout io.Writer, exp string, s experiments.Settings, outDir string) error {
	todo, err := experiments.Select(exp)
	if err != nil {
		return err
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	for _, e := range todo {
		res, err := e.Run(s)
		if err != nil {
			return err
		}
		res.Print(stdout)
		fmt.Fprintln(stdout)
		if outDir == "" {
			continue
		}
		if err := writeFile(filepath.Join(outDir, e.Name+".txt"), func(w io.Writer) error {
			res.Print(w)
			return nil
		}); err != nil {
			return err
		}
		// A result that serializes itself (anytime: the curves in the
		// serialization of bhpod's /jobs endpoint, so one set of tooling
		// plots either source) also gets <exp>.json.
		if j, ok := res.(interface{ WriteJSON(io.Writer) error }); ok {
			if err := writeFile(filepath.Join(outDir, e.Name+".json"), j.WriteJSON); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeFile creates path, fills it through write and reports the first
// error, the one from Close included.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
