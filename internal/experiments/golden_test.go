package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// testdata/fast.golden pins the rendered output of every experiment under
// the settings the TestRun*Fast tests use, so "same behaviour" after a
// refactor is checked to the byte. Scores are deterministic by seed and
// identical across kernel families and GOMAXPROCS; only wall-clock
// durations vary, so they are zeroed before rendering. After an intended
// change: go test ./internal/experiments/ -update
var update = flag.Bool("update", false, "rewrite testdata/fast.golden from this run")

const goldenPath = "testdata/fast.golden"

var goldenHeader = regexp.MustCompile(`(?m)^== (.+) ==\n`)

// readGolden splits the golden file into its "== name ==" sections.
func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	sections := map[string][]byte{}
	heads := goldenHeader.FindAllSubmatchIndex(data, -1)
	for i, h := range heads {
		end := len(data)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		sections[string(data[h[2]:h[3]])] = data[h[1]:end]
	}
	return sections
}

// compareGolden checks got against one section of the golden file, or
// with -update replaces that section (sections stay in registry order).
func compareGolden(t *testing.T, section string, got []byte) {
	t.Helper()
	sections := readGolden(t)
	if !*update {
		if want, ok := sections[section]; !ok {
			t.Errorf("golden has no section %q; run with -update", section)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s (-update rewrites it after an intended change)\n--- got\n%s--- want\n%s", section, goldenPath, got, want)
		}
		return
	}
	sections[section] = got
	var buf bytes.Buffer
	for _, name := range append(Names(), "anytime.json") {
		if body, ok := sections[name]; ok {
			fmt.Fprintf(&buf, "== %s ==\n%s", name, body)
		}
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkGolden renders res and compares it with its golden section, after
// zeroing the durations of the given cells (those res prints).
func checkGolden(t *testing.T, section string, res Printer, timed ...[]Cell) {
	t.Helper()
	for _, cells := range timed {
		for i := range cells {
			cells[i].TimeMean, cells[i].TimeStd = 0, 0
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	compareGolden(t, section, buf.Bytes())
}
