//go:build unix

package shipper

import (
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// sealWhole ships data as name into sink in one append and seals it.
func sealWhole(t *testing.T, sink *DirSink, name string, data []byte) {
	t.Helper()
	if err := sink.Append(name, 0, data); err != nil {
		t.Fatal(err)
	}
	if err := sink.Seal(name, int64(len(data)), sha(data)); err != nil {
		t.Fatal(err)
	}
}

// checkBothSealed: the manifest lists both segments, the replica verifies
// and a restore of it carries the later one.
func checkBothSealed(t *testing.T, dir string) {
	t.Helper()
	m, err := ReadManifest(dir)
	if err != nil || len(m) != 2 {
		t.Fatalf("manifest lists %d entries (%v), want both seals: %v", len(m), err, m)
	}
	if err := VerifyReplica(dir); err != nil {
		t.Fatal(err)
	}
	dest := filepath.Join(t.TempDir(), "restored")
	if _, err := Restore([]string{dir}, dest); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, filepath.Join(dest, "traces/trace-000002.jsonl")); string(got) != "second\n" {
		t.Fatalf("restored later segment holds %q", got)
	}
}

// TestCutWriteManifestKeepsLaterSeal: a manifest entry whose write the
// file-size limit cuts short fails its seal, and the retried seal's entry
// is read back rather than hidden behind the half line. The writes run in
// a re-executed test binary, so the limit (RLIMIT_FSIZE) binds nothing
// else in the run.
func TestCutWriteManifestKeepsLaterSeal(t *testing.T) {
	dir := os.Getenv("SHIPPER_CUT_DIR")
	if dir == "" {
		dir = t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1")
		cmd.Env = append(os.Environ(), "SHIPPER_CUT_DIR="+dir)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		checkBothSealed(t, dir)
		return
	}
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	sealWhole(t, sink, "traces/trace-000001.jsonl", []byte("first\n"))
	second := []byte("second\n")
	if err := sink.Append("traces/trace-000002.jsonl", 0, second); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	// Cap the files this process writes 20 bytes past the manifest's end.
	// Go ignores the SIGXFSZ a write past the cap raises: the write returns
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
	if err := sink.Seal("traces/trace-000002.jsonl", int64(len(second)), sha(second)); err == nil {
		t.Fatal("a manifest write past the file-size limit succeeded")
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	// The shipper's retry: the file is already in place, the entry is not.
	if err := sink.Seal("traces/trace-000002.jsonl", int64(len(second)), sha(second)); err != nil {
		t.Fatal(err)
	}
}

// TestDirSinkTornManifestTail: a manifest that ends in half a line — a
// crash mid-append — is cut back at the next seal, whose entry is read
// back rather than hidden behind the half line.
func TestDirSinkTornManifestTail(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	sealWhole(t, sink, "traces/trace-000001.jsonl", []byte("first\n"))
	f, err := os.OpenFile(filepath.Join(dir, ManifestName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"name":"traces/trace-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sealWhole(t, sink, "traces/trace-000002.jsonl", []byte("second\n"))
	checkBothSealed(t, dir)
}
