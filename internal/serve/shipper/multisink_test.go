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
	if s.Sinks() != 2 {
		t.Fatalf("Sinks() = %d, want 2", s.Sinks())
	}
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
	src, err := RestoreAny([]string{dirA, dirB}, dest)
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

	// Both corrupt: the error must carry the mismatch, and the existing
	// destination must be refused rather than replaced.
	writeFile(t, filepath.Join(dirB, "journal-000001.jsonl"), []byte("worse"))
	if _, err := RestoreAny([]string{dirA, dirB}, filepath.Join(t.TempDir(), "r2")); !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("all-corrupt restore = %v, want ErrChecksumMismatch", err)
	}
	if _, err := RestoreAny([]string{dirB}, dest); err == nil {
		t.Fatal("RestoreAny replaced an existing destination")
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
