package shipper

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// gateSink wraps a sink with an outage switch: while down, every
// operation fails — the injected "sink unreachable" fault.
type gateSink struct {
	inner Sink
	down  atomic.Bool
}

func (g *gateSink) gate() error {
	if g.down.Load() {
		return errors.New("injected sink outage")
	}
	return nil
}

func (g *gateSink) Offset(name string) (int64, error) {
	if err := g.gate(); err != nil {
		return 0, err
	}
	return g.inner.Offset(name)
}

func (g *gateSink) Append(name string, off int64, data []byte) error {
	if err := g.gate(); err != nil {
		return err
	}
	return g.inner.Append(name, off, data)
}

func (g *gateSink) Seal(name string, size int64, sum string) error {
	if err := g.gate(); err != nil {
		return err
	}
	return g.inner.Seal(name, size, sum)
}

// TestMultiSinkShipsToAll: a sealed segment must land, checksummed and
// manifested, in every configured sink, and the per-sink stats must
// account for each lane separately.
func TestMultiSinkShipsToAll(t *testing.T) {
	root := t.TempDir()
	dirA, dirB := t.TempDir(), t.TempDir()
	sinkA, err := NewDirSink(dirA)
	if err != nil {
		t.Fatal(err)
	}
	sinkB, err := NewDirSink(dirB)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("replicated twice\n")
	writeFile(t, filepath.Join(root, "journal-000001.jsonl"), data)

	s := NewMulti(root, []Sink{sinkA, sinkB}, Options{Interval: time.Hour})
	defer s.Close()
	s.Sealed("journal-000001.jsonl")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{dirA, dirB} {
		if got := readFile(t, filepath.Join(dir, "journal-000001.jsonl")); string(got) != string(data) {
			t.Fatalf("sink %s holds %q", dir, got)
		}
		if err := VerifyReplica(dir); err != nil {
			t.Fatalf("sink %s does not verify: %v", dir, err)
		}
	}
	per := s.PerSink()
	if len(per) != 2 {
		t.Fatalf("PerSink() returned %d entries, want 2", len(per))
	}
	for i, st := range per {
		if st.SegmentsShipped != 1 || st.Bytes != int64(len(data)) {
			t.Fatalf("sink %d stats = %+v, want 1 segment / %d bytes", i, st, len(data))
		}
	}
	// The aggregate counts per-sink seals: one local segment, two sinks.
	if got := s.Stats().SegmentsShipped; got != 2 {
		t.Fatalf("aggregate SegmentsShipped = %d, want 2", got)
	}
}

// TestMultiSinkOneDownOtherStaysCurrent: an outage on one sink must not
// hold the healthy sink back — it stays current inline — and once the
// outage ends the background retry loop catches the lagging sink up on
// its own.
func TestMultiSinkOneDownOtherStaysCurrent(t *testing.T) {
	root := t.TempDir()
	dirA, dirB := t.TempDir(), t.TempDir()
	sinkA, err := NewDirSink(dirA)
	if err != nil {
		t.Fatal(err)
	}
	inB, err := NewDirSink(dirB)
	if err != nil {
		t.Fatal(err)
	}
	sinkB := &gateSink{inner: inB}
	sinkB.down.Store(true)

	data := []byte("must not be held back by the dead sink\n")
	writeFile(t, filepath.Join(root, "journal-000001.jsonl"), data)
	s := NewMulti(root, []Sink{sinkA, sinkB}, Options{
		Interval: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
	})
	defer s.Close()
	s.Sealed("journal-000001.jsonl")

	// The healthy sink converges while B is still down.
	deadline := time.Now().Add(10 * time.Second)
	for s.PerSink()[0].SegmentsShipped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("healthy sink never converged while the other was down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := VerifyReplica(dirA); err != nil {
		t.Fatalf("healthy sink does not verify: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dirB, "journal-000001.jsonl")); err == nil {
		t.Fatal("down sink received the segment")
	}

	// Outage over: the async retry loop catches B up with no new writes.
	sinkB.down.Store(false)
	for s.PerSink()[1].SegmentsShipped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lagging sink never caught up after the outage")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := VerifyReplica(dirB); err != nil {
		t.Fatalf("caught-up sink does not verify: %v", err)
	}
	if got := readFile(t, filepath.Join(dirB, "journal-000001.jsonl")); string(got) != string(data) {
		t.Fatalf("caught-up sink holds %q", got)
	}
	per := s.PerSink()
	if per[1].Retries == 0 {
		t.Fatal("lagging sink's lane recorded no retries")
	}
	if per[0].Retries != 0 {
		t.Fatalf("healthy sink's lane recorded %d retries", per[0].Retries)
	}
}

// TestRestoreAnyFallsBackOnMismatch: a replica whose bytes no longer
// match its manifest must be skipped, restoring from the next sink —
// and the corrupt attempt must leave no partial destination behind.
func TestRestoreAnyFallsBackOnMismatch(t *testing.T) {
	root := t.TempDir()
	dirA, dirB := t.TempDir(), t.TempDir()
	sinkA, _ := NewDirSink(dirA)
	sinkB, _ := NewDirSink(dirB)
	data := []byte("the authoritative journal\n")
	writeFile(t, filepath.Join(root, "journal-000001.jsonl"), data)
	s := NewMulti(root, []Sink{sinkA, sinkB}, Options{Interval: time.Hour})
	s.Sealed("journal-000001.jsonl")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Bitrot on A: its manifest now lies about the sealed bytes.
	writeFile(t, filepath.Join(dirA, "journal-000001.jsonl"), []byte("bitrot"))

	dest := filepath.Join(t.TempDir(), "restored")
	src, err := Restore([]string{dirA, dirB}, dest)
	if err != nil {
		t.Fatal(err)
	}
	if src != dirB {
		t.Fatalf("restored from %s, want the clean sink %s", src, dirB)
	}
	if got := readFile(t, filepath.Join(dest, "journal-000001.jsonl")); string(got) != string(data) {
		t.Fatalf("restored journal = %q", got)
	}
	if _, err := os.Stat(dest + ".restoring"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("scratch dir left behind: %v", err)
	}
	// One quarantine rule: the mismatch renamed A's file although another
	// replica was there to fall back to, and A stays unusable — for the
	// coordinator's probe too — instead of passing as a replica whose
	// segment was superseded.
	if _, err := os.Stat(filepath.Join(dirA, "journal-000001.jsonl"+quarantineSuffix)); err != nil {
		t.Fatalf("corrupt file not quarantined with a fallback present: %v", err)
	}
	if err := VerifyReplica(dirA); !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("VerifyReplica of a quarantined replica = %v, want ErrChecksumMismatch", err)
	}

	// Both corrupt: the error must carry the mismatch, and the existing
	// destination must be refused rather than replaced.
	writeFile(t, filepath.Join(dirB, "journal-000001.jsonl"), []byte("worse"))
	if _, err := Restore([]string{dirA, dirB}, filepath.Join(t.TempDir(), "r2")); !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("all-corrupt restore = %v, want ErrChecksumMismatch", err)
	}
	if _, err := Restore([]string{dirB}, dest); err == nil {
		t.Fatal("Restore replaced an existing destination")
	}
}

// crash stops every lane's loop and waits for it, without the final flush
// Close does: what kill -9 leaves at the sinks is what was shipped before,
// and nothing of this shipper runs afterwards.
func (s *Shipper) crash() {
	for _, ln := range s.lanes {
		ln.mu.Lock()
		ln.closed = true
		ln.mu.Unlock()
		close(ln.stop)
		ln.wg.Wait()
	}
}

// TestMultiSinkCrashResumesPerSinkOffsets: after a shipper crash
// mid-ship, a fresh shipper must resume each sink from that sink's own
// offset — the sinks were at different points when the process died.
func TestMultiSinkCrashResumesPerSinkOffsets(t *testing.T) {
	root := t.TempDir()
	dirA, dirB := t.TempDir(), t.TempDir()
	sinkA, _ := NewDirSink(dirA)
	inB, _ := NewDirSink(dirB)
	sinkB := &gateSink{inner: inB}

	// First life: A receives the first ten bytes, B is down and receives
	// nothing. The process then crashes: its lanes stop without a flush
	// and its in-memory offsets are lost.
	full := []byte("0123456789abcdefghij\n")
	writeFile(t, filepath.Join(root, "journal-000001.jsonl"), full[:10])
	sinkB.down.Store(true)
	s1 := NewMulti(root, []Sink{sinkA, sinkB}, Options{Interval: time.Hour})
	s1.Changed("journal-000001.jsonl")
	if err := s1.Flush(); err == nil {
		t.Fatal("flush with a down sink reported success")
	}
	if off, _ := sinkA.Offset("journal-000001.jsonl"); off != 10 {
		t.Fatalf("sink A offset = %d before crash, want 10", off)
	}
	s1.crash()

	// Second life: the file has grown and sealed; B is back. The new
	// shipper knows nothing — each lane must query its own sink's offset
	// and ship exactly the missing suffix.
	writeFile(t, filepath.Join(root, "journal-000001.jsonl"), full)
	sinkB.down.Store(false)
	s2 := NewMulti(root, []Sink{sinkA, sinkB}, Options{Interval: time.Hour})
	defer s2.Close()
	s2.Sealed("journal-000001.jsonl")
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"A": dirA, "B": dirB} {
		if err := VerifyReplica(dir); err != nil {
			t.Fatalf("sink %s after resume: %v", name, err)
		}
		if got := readFile(t, filepath.Join(dir, "journal-000001.jsonl")); string(got) != string(full) {
			t.Fatalf("sink %s holds %q after resume", name, got)
		}
	}
	// A resumed at 10, shipping only the suffix; B started at 0.
	per := s2.PerSink()
	if per[0].Bytes != int64(len(full)-10) {
		t.Fatalf("sink A resumed shipping %d bytes, want %d (the missing suffix)", per[0].Bytes, len(full)-10)
	}
	if per[1].Bytes != int64(len(full)) {
		t.Fatalf("sink B resumed shipping %d bytes, want the whole file (%d)", per[1].Bytes, len(full))
	}
}

// TestRestoreDestinationRule: one rule for every restore, however many
// replicas are named — a destination that already holds a journal segment
// or base is refused and left as it was, an absent one and an empty
// pre-created one are accepted; a file, a symlink and a directory holding
// anything else are refused before a byte is copied.
func TestRestoreDestinationRule(t *testing.T) {
	root := t.TempDir()
	dirA, dirB := t.TempDir(), t.TempDir()
	sinkA, _ := NewDirSink(dirA)
	sinkB, _ := NewDirSink(dirB)
	writeFile(t, filepath.Join(root, "base-000002.jsonl"), []byte("replica\n"))
	writeFile(t, filepath.Join(root, "journal-000003.jsonl"), []byte("active tail"))
	s := NewMulti(root, []Sink{sinkA, sinkB}, Options{Interval: time.Hour})
	s.Sealed("base-000002.jsonl")
	s.Changed("journal-000003.jsonl")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Replica paths as an operator types them (./replicas/a/), not as
	// t.TempDir cleans them: file names are taken relative to the replica.
	for _, replicas := range [][]string{{dirA + "/./"}, {dirA + "/.", dirB}} {
		for _, held := range []string{"journal-000001.jsonl", "base-000001.jsonl"} {
			live := t.TempDir()
			writeFile(t, filepath.Join(live, held), []byte("live\n"))
			if _, err := Restore(replicas, live); err == nil {
				t.Fatalf("%d replica(s) restored over a directory holding %s", len(replicas), held)
			}
			if got := readFile(t, filepath.Join(live, held)); string(got) != "live\n" {
				t.Fatalf("refused restore rewrote %s: %q", held, got)
			}
			if _, err := os.Stat(filepath.Join(live, "base-000002.jsonl")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("refused restore copied the replica in anyway (%v)", err)
			}
		}
		// What the final rename could not replace whole is refused up
		// front and left as found: a file is not deleted, a symlink not
		// replaced beside its target, a stray file not buried.
		odd := t.TempDir()
		file, link, target, stray := filepath.Join(odd, "file"), filepath.Join(odd, "link"), filepath.Join(odd, "target"), filepath.Join(odd, "stray")
		writeFile(t, file, []byte("not a directory\n"))
		writeFile(t, filepath.Join(stray, "lost+found"), nil)
		if err := os.Mkdir(target, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.Symlink(target, link); err != nil {
			t.Fatal(err)
		}
		for _, dest := range []string{file, link, stray} {
			if _, err := Restore(replicas, dest); err == nil {
				t.Fatalf("%d replica(s) restored onto %s", len(replicas), dest)
			}
		}
		if got := readFile(t, file); string(got) != "not a directory\n" {
			t.Fatalf("refused restore rewrote the file: %q", got)
		}
		if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
			t.Fatalf("refused restore replaced the symlink (%v)", err)
		}
		if _, err := os.Stat(filepath.Join(stray, "lost+found")); err != nil {
			t.Fatalf("refused restore removed a stray file: %v", err)
		}
		if left, _ := filepath.Glob(filepath.Join(odd, "*.restoring")); len(left) > 0 {
			t.Fatalf("refused restores left scratch directories behind: %v", left)
		}
		for _, dest := range []string{t.TempDir(), filepath.Join(t.TempDir(), "absent")} {
			if _, err := Restore(replicas, dest); err != nil {
				t.Fatalf("%d replica(s) into %s: %v", len(replicas), dest, err)
			}
			if got := readFile(t, filepath.Join(dest, "base-000002.jsonl")); string(got) != "replica\n" {
				t.Fatalf("restored base = %q", got)
			}
			if got := readFile(t, filepath.Join(dest, "journal-000003.jsonl")); string(got) != "active tail" {
				t.Fatalf("restored part = %q", got)
			}
		}
	}
}
