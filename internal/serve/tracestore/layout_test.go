package tracestore_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"enhancedbhpo/internal/serve/journal"
	"enhancedbhpo/internal/serve/tracestore"
)

// TestOpenRefusesPerJobLayout: a traces directory written by the per-job
// layout is refused by name, with what to do about it, instead of opening
// with silently empty traces. The refusal is journal.Fold's check of the
// data directory, which runs before the boot opens the store; the refused
// directory is left as it was.
func TestOpenRefusesPerJobLayout(t *testing.T) {
	dataDir := t.TempDir()
	dir := tracestore.Dir(dataDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"job-2.trace.jsonl", "job-1.trace.jsonl"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return out
	}
	before := names()
	states, _, err := journal.Fold(dataDir, func(string, json.RawMessage) error { return nil })
	if err == nil {
		t.Fatalf("Fold accepted a directory of per-job trace files, folding %d jobs", len(states))
	}
	for _, want := range []string{filepath.Join(dir, "job-1.trace.jsonl"), "move", "older bhpod"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not mention %q", err, want)
		}
	}
	if after := names(); !slices.Equal(after, before) {
		t.Errorf("the refused directory was touched: now %v, was %v", after, before)
	}
}
