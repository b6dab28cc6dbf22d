package seglog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenFileCutsTornTail: a file that ends in half a line is cut back to
// its last newline at open, so the next line starts a line of its own; a
// file of whole lines is left as it is.
func TestOpenFileCutsTornTail(t *testing.T) {
	for _, c := range []struct{ held, want string }{
		{"", "{\"a\":3}\n"},
		{"{\"a\":1}\n", "{\"a\":1}\n{\"a\":3}\n"},
		{"{\"a\":1}\n{\"a\":", "{\"a\":1}\n{\"a\":3}\n"},
		{"{\"a\":", "{\"a\":3}\n"},
	} {
		path := filepath.Join(t.TempDir(), "x.jsonl")
		if err := os.WriteFile(path, []byte(c.held), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Append([]byte("{\"a\":3}\n"), true); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != c.want {
			t.Errorf("%q then an append holds %q (%v), want %q", c.held, data, err, c.want)
		}
	}
}

// TestFailedUndoRefusesAppends: when a failed write cannot be undone
// either — here both fail because the descriptor under the file is gone —
// the log refuses every later append, announces nothing and seals
// nothing, so nothing can follow what may be half a line.
func TestFailedUndoRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	var calls int
	l := Open(dir, "x-", 1, Options{MaxBytes: 64, OnChange: func(string, bool) { calls++ }})
	if _, err := l.Append([]byte("{\"a\":1}\n"), false); err != nil {
		t.Fatal(err)
	}
	l.active.f.Close()
	_, first := l.Append([]byte("{\"a\":2}\n"), false)
	if first == nil {
		t.Fatal("a write to a closed descriptor succeeded")
	}
	for range 3 {
		if _, err := l.Append([]byte("{\"a\":3}\n"), true); !errors.Is(err, first) {
			t.Fatalf("append after the failed undo = %v, want the wedging error %v", err, first)
		}
	}
	if calls != 1 {
		t.Fatalf("OnChange called %d times, want once, for the append before the failure", calls)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("the wedged log left %d files, want its one segment", len(entries))
	}
	if data, err := os.ReadFile(filepath.Join(dir, Name("x-", 1))); err != nil || string(data) != "{\"a\":1}\n" {
		t.Fatalf("segment holds %q, %v", data, err)
	}
}
