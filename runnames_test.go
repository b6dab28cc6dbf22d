//go:build runnames

package enhancedbhpo_test

import (
	"bufio"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileRunNames checks every `-run` pattern in the Makefile: each
// alternative of its regular expression must match a test, benchmark or
// example of the packages on that recipe line (built with the line's
// -tags), so that a renamed or deleted test cannot leave a target that
// silently runs nothing. Run it with `make runnames`; it lists the tests
// of every package a target names, so it sits behind a build tag.
func TestMakefileRunNames(t *testing.T) {
	f, err := os.Open("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runRe := regexp.MustCompile(`-run '([^']*)'`)
	tagsRe := regexp.MustCompile(`-tags (\S+)`)
	nameRe := regexp.MustCompile(`^(Test|Benchmark|Example|Fuzz)`)
	sc := bufio.NewScanner(f)
	lineNo, start, checked := 0, 0, 0
	recipe := ""
	for sc.Scan() {
		lineNo++
		if recipe == "" {
			start = lineNo
		}
		// A recipe line continues over lines ending in a backslash.
		recipe += strings.TrimSuffix(sc.Text(), `\`) + " "
		if strings.HasSuffix(sc.Text(), `\`) {
			continue
		}
		line := recipe
		recipe = ""
		m := runRe.FindStringSubmatch(line)
		if m == nil || m[1] == "^$$" {
			continue
		}
		args := []string{"test", "-list", "."}
		if tags := tagsRe.FindStringSubmatch(line); tags != nil {
			args = append(args, "-tags", tags[1])
		}
		var pkgs []string
		for _, field := range strings.Fields(line) {
			if field == "." || strings.HasPrefix(field, "./") {
				pkgs = append(pkgs, field)
			}
		}
		out, err := exec.Command("go", append(args, pkgs...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("Makefile:%d: go test -list %v: %v\n%s", start, pkgs, err, out)
		}
		var names []string
		for _, name := range strings.Fields(string(out)) {
			if nameRe.MatchString(name) {
				names = append(names, name)
			}
		}
		for _, alt := range strings.Split(strings.ReplaceAll(m[1], "$$", "$"), "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile:%d: %q: %v", start, alt, err)
				continue
			}
			found := false
			for _, name := range names {
				found = found || re.MatchString(name)
			}
			if !found {
				t.Errorf("Makefile:%d: -run alternative %q matches no test in %v", start, alt, pkgs)
			}
			checked++
		}
	}
	if err := sc.Err(); err != nil || checked == 0 {
		t.Fatalf("read the Makefile's -run patterns: %d alternatives, %v", checked, err)
	}
}
