//go:build unix

package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestCutWriteReplaysNextRecord: a record whose write the file-size limit
// cuts short fails to append, and the fsynced result appended next — which
// Append acknowledged — replays, instead of lying hidden behind the half
// line the cut left. The writes run in a re-executed test binary, so the
// limit (RLIMIT_FSIZE) binds nothing else in the run.
func TestCutWriteReplaysNextRecord(t *testing.T) {
	dir := os.Getenv("JOURNAL_CUT_DIR")
	if dir == "" {
		dir = t.TempDir()
		rerun(t, "JOURNAL_CUT_DIR="+dir)
		states, err := Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, st := range states {
			got = append(got, st.ID+" "+st.Status)
		}
		if fmt.Sprint(got) != "[job-1 done]" {
			t.Fatalf("replayed %v; want [job-1 done], nothing of the cut record", got)
		}
		return
	}
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	spec := json.RawMessage(`{"dataset":"australian","method":"sha"}`)
	if err := w.Append(Record{Type: TypeSubmit, Time: t0, JobID: "job-1", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	undo := limitFileSize(t, st.Size()+20)
	if err := w.Append(Record{Type: TypeSubmit, Time: t0, JobID: "job-2", Spec: spec}); err == nil {
		t.Fatal("a write past the file-size limit succeeded")
	}
	undo()
	if err := w.Append(Record{Type: TypeResult, Time: t0.Add(time.Second), JobID: "job-1", Status: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
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
