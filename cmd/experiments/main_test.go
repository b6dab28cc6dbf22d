package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"enhancedbhpo/internal/experiments"
)

// The instant experiments (no training) drive run end to end.
var instant = []string{"table2", "fig3", "prop1"}

func TestRunWritesOutFilesEqualToStdout(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	for _, exp := range instant {
		var stdout bytes.Buffer
		if err := run(&stdout, exp, experiments.FastSettings(), dir); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(filepath.Join(dir, exp+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		// stdout separates experiments with one blank line.
		if got := stdout.String(); got != string(file)+"\n" || len(file) == 0 {
			t.Errorf("%s: stdout and %s.txt differ:\n--- stdout\n%s--- file\n%s", exp, exp, got, file)
		}
	}
}

func TestRunUnknownExperimentCreatesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	var stdout bytes.Buffer
	err := run(&stdout, "bogus", experiments.FastSettings(), dir)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid name %q", err, name)
		}
	}
	if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
		t.Errorf("unknown experiment left %s behind (stat: %v)", dir, statErr)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown experiment printed %q", stdout.String())
	}
}

func TestSelectExpandsGroupsInRegistryOrder(t *testing.T) {
	for _, group := range []string{"all", "cv", "hpo"} {
		var want []string
		for _, e := range experiments.Registry {
			if group == "all" || e.Group == group {
				want = append(want, e.Name)
			}
		}
		todo, err := experiments.Select(group)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range todo {
			got = append(got, e.Name)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("-exp %s runs %v, want %v", group, got, want)
		}
		if group == "hpo" && !strings.Contains(strings.Join(got, ","), "stability") {
			t.Errorf("-exp hpo omits stability: %v", got)
		}
	}
	if len(experiments.Registry) != 15 {
		t.Errorf("registry has %d entries, want 15", len(experiments.Registry))
	}
}

func TestRegistryNamesUniqueAndDocumented(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range experiments.Registry {
		if seen[e.Name] {
			t.Errorf("duplicate registry name %q", e.Name)
		}
		seen[e.Name] = true
		if e.Name == "cv" || e.Name == "hpo" || e.Name == "all" {
			t.Errorf("experiment name %q collides with a group", e.Name)
		}
		// Each artifact has a row in DESIGN.md's experiment table whose
		// last column names how to regenerate and benchmark it.
		if !bytes.Contains(design, []byte("`cmd/experiments -exp "+e.Name+"`")) ||
			!bytes.Contains(design, []byte("`BenchmarkExperiment/"+e.Name+"`")) {
			t.Errorf("DESIGN.md has no table row for experiment %q", e.Name)
		}
	}
}
