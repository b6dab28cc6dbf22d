//go:build unix

package coord

import (
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// TestMemberJournalCutWrite: an op whose write the file-size limit cuts
// short fails to append, and the op acknowledged after it replays instead
// of lying behind the half line. The writes run in a re-executed test
// binary, so the limit (RLIMIT_FSIZE) binds nothing else in the run.
func TestMemberJournalCutWrite(t *testing.T) {
	dir := os.Getenv("COORD_CUT_DIR")
	if dir == "" {
		dir = t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1")
		cmd.Env = append(os.Environ(), "COORD_CUT_DIR="+dir)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		if got := replayedNodes(t, dir); got != "join a, join c" {
			t.Fatalf("the journal replays as %q, want join a, join c", got)
		}
		return
	}
	l, err := openMemberLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.append(MemberOp{Op: OpJoin, Node: "a", URL: "http://a"}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, MembersFileName))
	if err != nil {
		t.Fatal(err)
	}
	// Cap the files this process writes 20 bytes past the journal's end. Go
	// ignores the SIGXFSZ a write past the cap raises: the write returns
	// EFBIG with what fitted written, and the process lives.
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lim := old
	lim.Cur = uint64(st.Size() + 20)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	if err := l.append(MemberOp{Op: OpJoin, Node: "b", URL: "http://b"}); err == nil {
		t.Fatal("a write past the file-size limit succeeded")
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if err := l.append(MemberOp{Op: OpJoin, Node: "c", URL: "http://c"}); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
}
