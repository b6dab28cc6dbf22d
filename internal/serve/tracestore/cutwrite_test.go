//go:build unix

package tracestore

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// TestCutWriteKeepsEventsAround: an event whose write the file-size limit
// cuts short fails to append, and ReadAll has every event before the cut
// and every event after it, the terminal one included; Bytes() is what
// the directory holds. The writes run in a re-executed test binary, so
// the limit (RLIMIT_FSIZE) binds nothing else in the run.
func TestCutWriteKeepsEventsAround(t *testing.T) {
	dir := os.Getenv("TRACESTORE_CUT_DIR")
	if dir == "" {
		dir = t.TempDir()
		rerun(t, "TRACESTORE_CUT_DIR="+dir)
		all, err := ReadAll(dir, skipRecord)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(seqsOf(t, all["job-1"])); got != "[1 2 3 5]" {
			t.Fatalf("job-1 reads back as seqs %s, want [1 2 3 5]: all but the cut event", got)
		}
		return
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.Append(point(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := os.Stat(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	undo := limitFileSize(t, st.Size()+20)
	if err := s.Append(point(4)); err == nil {
		t.Fatal("a write past the file-size limit succeeded")
	}
	undo()
	if err := s.Append(terminalEvent(5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != diskBytes(t, dir) {
		t.Fatalf("Bytes() = %d, the directory holds %d", s.Bytes(), diskBytes(t, dir))
	}
}

// rerun runs the calling test again in a child test binary with env
// added, and fails if the child does.
func rerun(t *testing.T, env string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), env)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
}

// limitFileSize caps the files this process writes at n bytes and returns
// the undo. Go ignores the SIGXFSZ a write past the cap raises, so the
// write returns EFBIG with what fitted written and the process lives.
func limitFileSize(t *testing.T, n int64) (undo func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lim := old
	lim.Cur = uint64(n)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}
}
