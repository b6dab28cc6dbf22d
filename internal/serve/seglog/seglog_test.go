//go:build unix

package seglog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
)

// appender is what Log and File share.
type appender interface {
	Append(line []byte, sync bool) (int, error)
	Close() error
}

// TestContract is what the journal, the trace log, the membership log and
// a sink's manifest rely on of their writer, listing and reader, run
// against Log and File directly; TestOpenFileCutsTornTail and
// TestFailedUndoRefusesAppends hold the rest.
func TestContract(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(t *testing.T, dir string)
	}{
		{"every-life-starts-its-own-segment", func(t *testing.T, dir string) {
			// A legacy prefix's newest file numbers the first segment too,
			// and the torn line it ends in stays where it is.
			write(t, dir, "b-000004.jsonl", "{\"a\":")
			for life, appends := range []int{0, 1, 0, 2} {
				before := files(t, dir)
				l, err := Open(dir, Options{}, "j-", "b-")
				if err != nil {
					t.Fatal(err)
				}
				for range appends {
					mustAppend(t, l, "{}\n")
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				after := files(t, dir)
				for name, data := range before {
					if after[name] != data {
						t.Fatalf("life %d changed %s, which an earlier life wrote", life, name)
					}
				}
				if added := len(after) - len(before); added != min(appends, 1) {
					t.Fatalf("life %d appending %d lines added %d files", life, appends, added)
				}
			}
			if got := fmt.Sprint(files(t, dir)); got != `map[b-000004.jsonl:{"a": j-000005.jsonl:{}
 j-000006.jsonl:{}
{}
]` {
				t.Fatalf("four lives left %s", got)
			}
		}},
		{"rotation-under-concurrent-appends", func(t *testing.T, dir string) {
			// Every line reads back once, each writer's in its order; every
			// segment but the active one was sealed once at its size, and
			// never announced or written again.
			const writers, each, maxBytes = 8, 40, 256
			sealed := map[string]int64{} // written under the log's lock
			l, err := Open(dir, Options{MaxBytes: maxBytes, OnChange: func(name string, seal bool) {
				if _, again := sealed[name]; again {
					t.Errorf("%s announced (sealed=%v) after it was sealed", name, seal)
				}
				if seal {
					st, err := os.Stat(filepath.Join(dir, name))
					if err != nil {
						t.Error(err)
						return
					}
					sealed[name] = st.Size()
				}
			}}, "x-")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range each {
						if _, err := l.Append(fmt.Appendf(nil, "{\"g\":%d,\"i\":%d}\n", g, i), false); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := List(dir, "x-")
			if err != nil {
				t.Fatal(err)
			}
			next := make([]int, writers)
			err = Read(dir, segs, func(line []byte) error {
				var v struct{ G, I int }
				if err := json.Unmarshal(line, &v); err != nil || v.I != next[v.G] {
					return fmt.Errorf("line %s after %d of its writer's lines (%v)", line, next[v.G], err)
				}
				next[v.G]++
				return nil
			})
			if err != nil || fmt.Sprint(next) != fmt.Sprint([]int{each, each, each, each, each, each, each, each}) {
				t.Fatalf("read back %v lines per writer, %v", next, err)
			}
			for _, seg := range segs[:len(segs)-1] {
				if size, ok := sealed[seg.Name]; !ok || size != seg.Size || size < maxBytes {
					t.Errorf("%s: %d bytes, sealed %v at %d", seg.Name, seg.Size, ok, size)
				}
			}
			if len(segs) < 10 || len(sealed) < len(segs)-1 {
				t.Fatalf("%d segments, %d sealed", len(segs), len(sealed))
			}
		}},
		{"announcements", func(t *testing.T, dir string) {
			// Open announces each file of the log's prefixes already there,
			// in sequence order, as sealed; then each append that did not
			// seal its segment, and each seal once.
			for _, name := range []string{"x-000002.jsonl", "y-000003.jsonl", "x-000001.jsonl", "x-7.jsonl", "z-000009.jsonl"} {
				write(t, dir, name, "{}\n")
			}
			var calls []string
			l, err := Open(dir, Options{MaxBytes: 8, OnChange: func(name string, sealed bool) {
				calls = append(calls, fmt.Sprint(name, " ", sealed))
			}}, "x-", "y-")
			if err != nil {
				t.Fatal(err)
			}
			for range 3 {
				mustAppend(t, l, "abc\n")
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			want := "[x-000001.jsonl true x-000002.jsonl true y-000003.jsonl true " +
				"x-000004.jsonl false x-000004.jsonl true x-000005.jsonl false]"
			if got := fmt.Sprint(calls); got != want {
				t.Fatalf("announced %s, want %s", got, want)
			}
		}},
		{"cut-write-log", cutWrite(func(dir string) (appender, error) { return Open(dir, Options{}, "x-") })},
		{"cut-write-file", cutWrite(func(dir string) (appender, error) { return OpenFile(filepath.Join(dir, Name("x-", 1))) })},
		{"gap-reported", func(t *testing.T, dir string) {
			// A segment missing between two others is named once every
			// other one is read; one listed and gone before its turn is lost
			// history, not an empty one; an error from the callback stops
			// the read, naming the file and the line.
			for name, data := range map[string]string{"x-000001.jsonl": "a\n", "x-000002.jsonl": "b\nc\n", "x-000004.jsonl": "d\n"} {
				write(t, dir, name, data)
			}
			got, err := lines(dir)
			if fmt.Sprint(got) != "[a b c d]" || err == nil || !strings.Contains(err.Error(), "missing segment x-000003.jsonl") {
				t.Errorf("read %v, %v; want every line and the gap named", got, err)
			}
			gone := []Segment{{Name: Name("x-", 5), Seq: 5}}
			if err := Read(dir, gone, func([]byte) error { return nil }); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("a vanished segment read as %v", err)
			}
			segs, _ := List(dir, "x-")
			bad := errors.New("bad")
			err = Read(dir, segs, func(line []byte) error {
				if string(line) == "c" {
					return bad
				}
				return nil
			})
			if !errors.Is(err, bad) || !strings.Contains(err.Error(), "x-000002.jsonl line 2") {
				t.Errorf("a corrupt line read as %v", err)
			}
		}},
		{"skip-segment-ends-one-segment", func(t *testing.T, dir string) {
			write(t, dir, Name("x-", 1), "a\nskip\nb\n")
			write(t, dir, Name("x-", 2), "c\nd")
			if got, err := lines(dir); fmt.Sprint(got) != "[a skip c]" || err != nil {
				t.Errorf("read %v, %v; want the lines up to the skip and the next segment's", got, err)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) { row.run(t, t.TempDir()) })
	}
}

// TestOpenFileCutsTornTail: the bytes after a file's last newline are
// read as nothing, and cut off at open, so the next line starts a line of
// its own; a file of whole lines is left as it is.
func TestOpenFileCutsTornTail(t *testing.T) {
	for _, c := range []struct{ held, read, want string }{
		{"", "[]", "{\"a\":3}\n"},
		{"{\"a\":1}\n", "[{\"a\":1}]", "{\"a\":1}\n{\"a\":3}\n"},
		{"{\"a\":1}\n{\"a\":", "[{\"a\":1}]", "{\"a\":1}\n{\"a\":3}\n"},
		{"{\"a\":", "[]", "{\"a\":3}\n"},
	} {
		path := filepath.Join(t.TempDir(), Name("x-", 1))
		write(t, filepath.Dir(path), filepath.Base(path), c.held)
		if got, err := lines(filepath.Dir(path)); fmt.Sprint(got) != c.read || err != nil {
			t.Errorf("%q reads as %s (%v), want %s", c.held, got, err, c.read)
		}
		f, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, f, "{\"a\":3}\n")
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
	l, err := Open(dir, Options{MaxBytes: 64, OnChange: func(string, bool) { calls++ }}, "x-")
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, "{\"a\":1}\n")
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
	if got := fmt.Sprint(files(t, dir)); got != "map[x-000001.jsonl:{\"a\":1}\n]" {
		t.Fatalf("the wedged log left %s", got)
	}
}

// cutWrite is the row for the appender open returns: a line whose write
// the file-size limit cuts short fails to append and leaves nothing, and
// the line appended next reads back instead of lying hidden behind half a
// line. The writes run in a re-executed test binary, so the limit
// (RLIMIT_FSIZE) binds nothing else in the run.
func cutWrite(open func(dir string) (appender, error)) func(t *testing.T, dir string) {
	return func(t *testing.T, dir string) {
		child := os.Getenv("SEGLOG_CUT_DIR")
		if child == "" {
			run := "^" + strings.ReplaceAll(t.Name(), "/", "$/^") + "$"
			cmd := exec.Command(os.Args[0], "-test.run="+run, "-test.count=1")
			cmd.Env = append(os.Environ(), "SEGLOG_CUT_DIR="+dir)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("child: %v\n%s", err, out)
			}
			if got, err := lines(dir); fmt.Sprint(got) != "[1 3]" || err != nil {
				t.Fatalf("read back %v, %v; want [1 3], nothing of the cut line", got, err)
			}
			return
		}
		w, err := open(child)
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, w, "1\n")
		undo := limitFileSize(t, 22)
		if _, err := w.Append([]byte(strings.Repeat("2", 40)+"\n"), false); err == nil {
			t.Fatal("a write past the file-size limit succeeded")
		}
		undo()
		if _, err := w.Append([]byte("3\n"), true); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// limitFileSize caps the files this process writes at n bytes and returns
// the undo. Go ignores the SIGXFSZ a write past the cap raises, so the
// write returns EFBIG with what fitted written and the process lives.
func limitFileSize(t *testing.T, n uint64) (undo func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lim := old
	lim.Cur = n
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}
}

// lines reads dir's log of x- segments, ending a segment at a "skip".
func lines(dir string) ([]string, error) {
	segs, err := List(dir, "x-")
	if err != nil {
		return nil, err
	}
	out := []string{}
	err = Read(dir, segs, func(line []byte) error {
		out = append(out, string(line))
		if string(line) == "skip" {
			return SkipSegment
		}
		return nil
	})
	return out, err
}

func mustAppend(t *testing.T, w appender, line string) {
	t.Helper()
	if _, err := w.Append([]byte(line), false); err != nil {
		t.Fatal(err)
	}
}

func write(t *testing.T, dir, name, data string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// files returns a directory's files by name.
func files(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}
