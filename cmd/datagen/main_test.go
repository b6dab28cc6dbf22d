package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"enhancedbhpo/internal/dataset"
)

// readCSV parses a CSV body into its header and rows.
func readCSV(t *testing.T, body []byte) (header []string, rows [][]string) {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil || len(recs) == 0 {
		t.Fatalf("not a CSV with a header (%v): %.200s", err, body)
	}
	return recs[0], recs[1:]
}

// TestRun drives datagen's run as the command line does: each case's
// arguments, what it writes to stdout, stderr and files, or its error.
func TestRun(t *testing.T) {
	australian, err := dataset.SpecByName("australian")
	if err != nil {
		t.Fatal(err)
	}
	small := australian.Scaled(0.1)
	for _, tc := range []struct {
		name  string
		args  func(dir string) []string
		check func(t *testing.T, dir string, stdout, stderr []byte)
		err   string
	}{
		{
			name: "list",
			args: func(string) []string { return []string{"-list"} },
			check: func(t *testing.T, _ string, stdout, _ []byte) {
				lines := strings.Split(strings.TrimSuffix(string(stdout), "\n"), "\n")
				specs := dataset.PaperSpecs()
				if len(lines) != len(specs) {
					t.Fatalf("%d lines for %d datasets:\n%s", len(lines), len(specs), stdout)
				}
				for i, s := range specs {
					if fields := strings.Fields(lines[i]); fields[0] != s.Name || !strings.Contains(lines[i], "train="+strconv.Itoa(s.Train)) {
						t.Errorf("line %d is %q, want %s's", i, lines[i], s.Name)
					}
				}
			},
		},
		{
			name: "stdout",
			args: func(string) []string { return []string{"-dataset", "australian", "-scale", "0.1"} },
			check: func(t *testing.T, _ string, stdout, stderr []byte) {
				header, rows := readCSV(t, stdout)
				if len(header) != small.Features+1 || header[0] != "f0" || header[len(header)-1] != "label" {
					t.Errorf("header %v", header)
				}
				if len(rows) != small.Train {
					t.Errorf("%d rows on stdout, want the %d training instances", len(rows), small.Train)
				}
				if len(stderr) != 0 {
					t.Errorf("stderr %q", stderr)
				}
			},
		},
		{
			name: "out-and-test",
			args: func(dir string) []string {
				return []string{"-scale", "0.1", "-out", filepath.Join(dir, "train.csv"), "-test", filepath.Join(dir, "test.csv")}
			},
			check: func(t *testing.T, dir string, stdout, stderr []byte) {
				for name, want := range map[string]int{"train.csv": small.Train, "test.csv": small.Test} {
					body, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil {
						t.Fatal(err)
					}
					if _, rows := readCSV(t, body); len(rows) != want {
						t.Errorf("%s holds %d rows, want %d", name, len(rows), want)
					}
				}
				if len(stdout) != 0 || strings.Count(string(stderr), "wrote ") != 2 {
					t.Errorf("stdout %q, stderr %q", stdout, stderr)
				}
			},
		},
		{
			name: "standardize",
			args: func(string) []string { return []string{"-scale", "0.1", "-standardize"} },
			check: func(t *testing.T, _ string, stdout, _ []byte) {
				_, rows := readCSV(t, stdout)
				sum := 0.0
				for _, row := range rows {
					v, err := strconv.ParseFloat(row[0], 64)
					if err != nil {
						t.Fatal(err)
					}
					sum += v
				}
				if mean := sum / float64(len(rows)); mean > 1e-9 || mean < -1e-9 {
					t.Errorf("standardized f0 has mean %g over the training split", mean)
				}
			},
		},
		{
			name: "unknown-dataset",
			args: func(string) []string { return []string{"-dataset", "nope"} },
			err:  `unknown spec "nope"`,
		},
		{
			name: "unknown-flag",
			args: func(string) []string { return []string{"-nope"} },
			err:  errUsage.Error(),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var stdout, stderr bytes.Buffer
			err := run(tc.args(dir), &stdout, &stderr)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, dir, stdout.Bytes(), stderr.Bytes())
		})
	}
}
