// Command datagen synthesizes one of the simulated paper datasets and
// writes it to CSV, so the generators can feed external tools (or users
// can eyeball the data the experiments run on).
//
// Usage:
//
//	datagen -dataset a9a -seed 1 -scale 0.35 -out a9a_train.csv -test a9a_test.csv
//
// Omitting -out writes the training split to stdout; -test is optional.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"enhancedbhpo/internal/dataset"
)

// errUsage is run's error for a command line the flag set rejected and
// has already reported, with the usage, on stderr.
var errUsage = errors.New("invalid command line")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); err {
	case nil, flag.ErrHelp:
	case errUsage:
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

// run parses args and writes what they ask for: the dataset list, or one
// dataset's training split to -out (stdout when omitted) and its test
// split to -test; progress lines go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dsName      = fs.String("dataset", "australian", "simulated dataset name (see `datagen -list`)")
		list        = fs.Bool("list", false, "list available datasets and exit")
		seed        = fs.Uint64("seed", 1, "generator seed")
		scale       = fs.Float64("scale", 1.0, "size scale factor")
		out         = fs.String("out", "", "training-split CSV path (default stdout)")
		testPath    = fs.String("test", "", "optional test-split CSV path")
		standardize = fs.Bool("standardize", false, "standardize features (fit on train)")
	)
	switch err := fs.Parse(args); {
	case err == flag.ErrHelp:
		return err
	case err != nil:
		return errUsage
	}
	if *list {
		for _, s := range dataset.PaperSpecs() {
			fmt.Fprintf(stdout, "%-12s %-14s classes=%d train=%d test=%d features=%d\n",
				s.Name, s.Kind, s.Classes, s.Train, s.Test, s.Features)
		}
		return nil
	}
	spec, err := dataset.SpecByName(*dsName)
	if err != nil {
		return err
	}
	if *scale != 1.0 {
		spec = spec.Scaled(*scale)
	}
	train, test, err := dataset.Synthesize(spec, *seed)
	if err != nil {
		return err
	}
	if *standardize {
		dataset.Standardize(train, test)
	}
	if *out == "" {
		return train.WriteCSV(stdout)
	}
	if err := writeFile(*out, train); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %d training instances to %s\n", train.Len(), *out)
	if *testPath != "" {
		if err := writeFile(*testPath, test); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d test instances to %s\n", test.Len(), *testPath)
	}
	return nil
}

func writeFile(path string, d *dataset.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
