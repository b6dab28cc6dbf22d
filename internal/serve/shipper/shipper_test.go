package shipper

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDirSinkAppendSealRoundTrip: bytes appended in pieces seal into a
// final file plus a manifest entry carrying its checksum.
func TestDirSinkAppendSealRoundTrip(t *testing.T) {
	sink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, replicated world\n")
	if err := sink.Append("journal-000001.jsonl", 0, data[:10]); err != nil {
		t.Fatal(err)
	}
	off, err := sink.Offset("journal-000001.jsonl")
	if err != nil || off != 10 {
		t.Fatalf("offset = %d, %v; want 10", off, err)
	}
	if err := sink.Append("journal-000001.jsonl", 10, data[10:]); err != nil {
		t.Fatal(err)
	}
	if err := sink.Seal("journal-000001.jsonl", int64(len(data)), sha(data)); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, filepath.Join(sink.root, "journal-000001.jsonl"))
	if string(got) != string(data) {
		t.Fatalf("sealed content %q, want %q", got, data)
	}
	manifest, err := ReadManifest(sink.root)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := manifest["journal-000001.jsonl"]
	if !ok || e.Size != int64(len(data)) || e.SHA256 != sha(data) {
		t.Fatalf("manifest entry = %+v, ok=%v", e, ok)
	}
	// A sealed file's offset is its final size — a re-querying shipper
	// sees nothing left to ship.
	off, err = sink.Offset("journal-000001.jsonl")
	if err != nil || off != int64(len(data)) {
		t.Fatalf("post-seal offset = %d, %v", off, err)
	}
}

// TestDirSinkOffsetMismatch: appending anywhere but the current part size
// (except a restart at zero) is refused with the named error.
func TestDirSinkOffsetMismatch(t *testing.T) {
	sink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Append("f", 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := sink.Append("f", 7, []byte("xyz")); !errors.Is(err, ErrOffsetMismatch) {
		t.Fatalf("gap append error = %v, want ErrOffsetMismatch", err)
	}
	// Restarting at zero is the rewrite path and must succeed.
	if err := sink.Append("f", 0, []byte("restart")); err != nil {
		t.Fatal(err)
	}
	off, _ := sink.Offset("f")
	if off != int64(len("restart")) {
		t.Fatalf("offset after restart = %d", off)
	}
}

// TestDirSinkChecksumQuarantine: a seal whose digest does not match the
// held bytes must quarantine them under a .quarantine name and fail with
// ErrChecksumMismatch — corrupted history is preserved for post-mortems,
// never promoted.
func TestDirSinkChecksumQuarantine(t *testing.T) {
	sink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Append("seg", 0, []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	err = sink.Seal("seg", int64(len("good bytes")), sha([]byte("evil bytes")))
	if !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("seal error = %v, want ErrChecksumMismatch", err)
	}
	if _, err := os.Stat(filepath.Join(sink.root, "seg"+quarantineSuffix)); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(sink.root, "seg")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("mismatched content was promoted to its final name")
	}
	if m, _ := ReadManifest(sink.root); len(m) != 0 {
		t.Fatalf("manifest recorded a failed seal: %v", m)
	}
}

// TestDirSinkRejectsEscapingNames: traversal and absolute names must be
// refused before touching the filesystem.
func TestDirSinkRejectsEscapingNames(t *testing.T) {
	sink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "../evil", "a/../../evil", "/abs", `a\b`, ManifestName} {
		if err := sink.Append(name, 0, []byte("x")); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
}

// TestShipperMidShipCrashResumes: a shipper that dies mid-ship leaves a
// resumable part at the sink; a *fresh* shipper (no in-memory state, the
// crash-restart shape) must resume from the sink's offset and complete
// the seal without re-shipping what already landed.
func TestShipperMidShipCrashResumes(t *testing.T) {
	root := t.TempDir()
	sink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := []byte(strings.Repeat("r1 ", 100))
	writeFile(t, filepath.Join(root, "journal-000001.jsonl"), first)

	s1 := New(root, sink, Options{Sync: true})
	s1.Changed("journal-000001.jsonl")
	// "Crash": abandon s1 without Close. The sink holds a part file.
	partPath := filepath.Join(sink.root, "journal-000001.jsonl"+partSuffix)
	if got := readFile(t, partPath); string(got) != string(first) {
		t.Fatalf("sink part holds %d bytes, want %d", len(got), len(first))
	}

	// The file grows after the crash; a fresh shipper must ship only the
	// tail (the sink offset proves resume: the part already has len(first)
	// bytes and an offset-0 restart would be detectable — instead, its
	// content must remain a strict prefix-extension).
	tail := []byte("tail after restart\n")
	all := append(append([]byte{}, first...), tail...)
	writeFile(t, filepath.Join(root, "journal-000001.jsonl"), all)
	s2 := New(root, sink, Options{Sync: true})
	defer s2.Close()
	s2.Sealed("journal-000001.jsonl")
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats(); got.Bytes != int64(len(tail)) {
		t.Fatalf("fresh shipper shipped %d bytes, want only the %d-byte tail (resume failed)", got.Bytes, len(tail))
	}
	got := readFile(t, filepath.Join(sink.root, "journal-000001.jsonl"))
	if string(got) != string(all) {
		t.Fatalf("sealed content mismatch: %d bytes vs %d", len(got), len(all))
	}
	m, _ := ReadManifest(sink.root)
	if e := m["journal-000001.jsonl"]; e.SHA256 != sha(all) {
		t.Fatalf("manifest checksum %q, want %q", e.SHA256, sha(all))
	}
}

// TestShipperShrunkFileRestarts: a file smaller locally than at the sink
// (this node was restored from a replica that lagged the sink) must
// restart at the sink rather than appending garbage past its end.
func TestShipperShrunkFileRestarts(t *testing.T) {
	root := t.TempDir()
	sink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "traces", "trace-000001.jsonl")
	writeFile(t, path, []byte(strings.Repeat("x", 500)))
	s := New(root, sink, Options{Sync: true})
	defer s.Close()
	s.Changed("traces/trace-000001.jsonl")

	shorter := []byte("shorter\n")
	writeFile(t, path, shorter)
	s.Changed("traces/trace-000001.jsonl")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, filepath.Join(sink.root, "traces", "trace-000001.jsonl"+partSuffix))
	if string(got) != string(shorter) {
		t.Fatalf("sink holds %q, want the local content %q", got, shorter)
	}
}

// TestShipperMissingFileIsDone: a queued file deleted locally (the
// journal fold removed a superseded segment) must resolve as done, not
// retry forever.
func TestShipperMissingFileIsDone(t *testing.T) {
	root := t.TempDir()
	sink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(root, sink, Options{})
	defer s.Close()
	s.Sealed("journal-000009.jsonl") // never existed locally
	if err := s.Flush(); err != nil {
		t.Fatalf("missing file errored: %v", err)
	}
}

// TestReceiverHTTPSinkRoundTrip: the peer-push path — HTTPSink against a
// mounted Receiver — must behave like a local DirSink, including carrying
// the named sentinel errors across the wire.
func TestReceiverHTTPSinkRoundTrip(t *testing.T) {
	recvRoot := t.TempDir()
	recv, err := NewReceiver(recvRoot)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.StripPrefix("/ship", recv))
	defer ts.Close()
	sink, err := NewHTTPSink(ts.URL+"/ship", "node-a", nil)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("pushed across the wire\n")
	if err := sink.Append("journal-000001.jsonl", 0, data); err != nil {
		t.Fatal(err)
	}
	off, err := sink.Offset("journal-000001.jsonl")
	if err != nil || off != int64(len(data)) {
		t.Fatalf("offset = %d, %v", off, err)
	}
	if err := sink.Append("journal-000001.jsonl", 5, []byte("x")); !errors.Is(err, ErrOffsetMismatch) {
		t.Fatalf("gap append over HTTP = %v, want ErrOffsetMismatch", err)
	}
	if err := sink.Seal("journal-000001.jsonl", int64(len(data)), sha([]byte("wrong"))); !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("bad seal over HTTP = %v, want ErrChecksumMismatch", err)
	}
	// The quarantine consumed the part; re-push and seal correctly.
	if err := sink.Append("journal-000001.jsonl", 0, data); err != nil {
		t.Fatal(err)
	}
	if err := sink.Seal("journal-000001.jsonl", int64(len(data)), sha(data)); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, filepath.Join(recvRoot, "node-a", "journal-000001.jsonl"))
	if string(got) != string(data) {
		t.Fatalf("receiver holds %q", got)
	}
}

// TestRestoreVerifiesChecksums: Restore must copy manifest-listed files
// only after re-verifying them, quarantine corruption, and carry .part
// tails under their bare names.
func TestRestoreVerifiesChecksums(t *testing.T) {
	sinkDir := t.TempDir()
	sink, err := NewDirSink(sinkDir)
	if err != nil {
		t.Fatal(err)
	}
	sealed := []byte("sealed segment\n")
	if err := sink.Append("journal-000001.jsonl", 0, sealed); err != nil {
		t.Fatal(err)
	}
	if err := sink.Seal("journal-000001.jsonl", int64(len(sealed)), sha(sealed)); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(sinkDir, "journal-000002.jsonl"+partSuffix), []byte("active tail"))

	dest := t.TempDir()
	if _, err := Restore([]string{sinkDir}, dest); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, filepath.Join(dest, "journal-000001.jsonl")); string(got) != string(sealed) {
		t.Fatalf("restored sealed file = %q", got)
	}
	if got := readFile(t, filepath.Join(dest, "journal-000002.jsonl")); string(got) != "active tail" {
		t.Fatalf("restored part = %q", got)
	}

	// Corrupt the sealed replica: Restore must refuse and quarantine.
	writeFile(t, filepath.Join(sinkDir, "journal-000001.jsonl"), []byte("bitrot"))
	_, err = Restore([]string{sinkDir}, t.TempDir())
	if !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("restore of corrupted replica = %v, want ErrChecksumMismatch", err)
	}
	if _, err := os.Stat(filepath.Join(sinkDir, "journal-000001.jsonl"+quarantineSuffix)); err != nil {
		t.Fatalf("corrupted file not quarantined: %v", err)
	}
}

// TestShipperAsyncRetriesAfterSinkFailure: with a sink that fails first,
// the background loop must retry with backoff until it heals, counting
// the retries.
func TestShipperAsyncRetriesAfterSinkFailure(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "journal-000001.jsonl"), []byte("data"))
	flaky := &flakySink{inner: mustDirSink(t), failFirst: 2}
	s := New(root, flaky, Options{Interval: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond})
	defer s.Close()
	s.Sealed("journal-000001.jsonl")
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().SegmentsShipped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("segment never shipped through the flaky sink")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.Stats().Retries; got == 0 {
		t.Fatal("retries counter stayed zero despite injected failures")
	}
}

func mustDirSink(t *testing.T) *DirSink {
	t.Helper()
	d, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// flakySink fails its first failFirst operations, then delegates.
type flakySink struct {
	inner     Sink
	failFirst int
	mu        sync.Mutex
	calls     int
}

func (f *flakySink) bump() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls <= f.failFirst {
		return errors.New("injected sink outage")
	}
	return nil
}

func (f *flakySink) Offset(name string) (int64, error) {
	if err := f.bump(); err != nil {
		return 0, err
	}
	return f.inner.Offset(name)
}

func (f *flakySink) Append(name string, off int64, data []byte) error {
	if err := f.bump(); err != nil {
		return err
	}
	return f.inner.Append(name, off, data)
}

func (f *flakySink) Seal(name string, size int64, sum string) error {
	if err := f.bump(); err != nil {
		return err
	}
	return f.inner.Seal(name, size, sum)
}
