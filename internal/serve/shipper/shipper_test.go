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

// TestSinkContract holds both sinks to the Sink contract: every row runs
// against a DirSink and against an HTTPSink pushing to a mounted
// Receiver, which must carry the named sentinel errors across the wire.
// dir is where the backend keeps the node's files.
func TestSinkContract(t *testing.T) {
	const name = "traces/trace-000001.jsonl"
	data := []byte("hello, replicated world\n")
	mustAppend := func(t *testing.T, sink Sink, off int64, b []byte) {
		t.Helper()
		if err := sink.Append(name, off, b); err != nil {
			t.Fatalf("append at %d: %v", off, err)
		}
	}
	wantOffset := func(t *testing.T, sink Sink, want int64) {
		t.Helper()
		if off, err := sink.Offset(name); err != nil || off != want {
			t.Fatalf("offset = %d, %v; want %d", off, err, want)
		}
	}
	rows := []struct {
		name string
		run  func(t *testing.T, sink Sink, dir string)
	}{
		{"append-in-pieces", func(t *testing.T, sink Sink, dir string) {
			mustAppend(t, sink, 0, data[:10])
			wantOffset(t, sink, 10)
			mustAppend(t, sink, 10, data[10:])
			wantOffset(t, sink, int64(len(data)))
		}},
		{"gap-append", func(t *testing.T, sink Sink, dir string) {
			mustAppend(t, sink, 0, data[:3])
			if err := sink.Append(name, 7, data[3:]); !errors.Is(err, ErrOffsetMismatch) {
				t.Fatalf("gap append = %v, want ErrOffsetMismatch", err)
			}
			wantOffset(t, sink, 3)
		}},
		{"restart-at-zero", func(t *testing.T, sink Sink, dir string) {
			mustAppend(t, sink, 0, data)
			mustAppend(t, sink, 0, []byte("restart"))
			wantOffset(t, sink, int64(len("restart")))
		}},
		// A seal whose digest does not match the held bytes keeps them under
		// a quarantine name for post-mortems and never promotes them.
		{"bad-seal", func(t *testing.T, sink Sink, dir string) {
			mustAppend(t, sink, 0, data)
			if err := sink.Seal(name, int64(len(data)), sha([]byte("evil bytes"))); !errors.Is(err, ErrChecksumMismatch) {
				t.Fatalf("seal = %v, want ErrChecksumMismatch", err)
			}
			if got := readFile(t, filepath.Join(dir, name+quarantineSuffix)); string(got) != string(data) {
				t.Fatalf("quarantined %q, want %q", got, data)
			}
			if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("mismatched content was promoted to its final name: %v", err)
			}
			if m, err := ReadManifest(dir); err != nil || len(m) != 0 {
				t.Fatalf("manifest after a failed seal = %v, %v; want empty", m, err)
			}
		}},
		// A sealed file's offset is its final size: a re-querying shipper
		// sees nothing left to ship.
		{"good-seal", func(t *testing.T, sink Sink, dir string) {
			mustAppend(t, sink, 0, data)
			if err := sink.Seal(name, int64(len(data)), sha(data)); err != nil {
				t.Fatal(err)
			}
			if got := readFile(t, filepath.Join(dir, name)); string(got) != string(data) {
				t.Fatalf("sealed %q, want %q", got, data)
			}
			m, err := ReadManifest(dir)
			if e := m[name]; err != nil || e.Size != int64(len(data)) || e.SHA256 != sha(data) {
				t.Fatalf("manifest entry = %+v, %v", e, err)
			}
			wantOffset(t, sink, int64(len(data)))
		}},
	}
	backends := []struct {
		name string
		open func(t *testing.T) (Sink, string)
	}{
		{"dir", func(t *testing.T) (Sink, string) {
			sink := mustDirSink(t)
			return sink, sink.root
		}},
		{"http", func(t *testing.T) (Sink, string) {
			root := t.TempDir()
			recv, err := NewReceiver(root)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(http.StripPrefix("/ship", recv))
			t.Cleanup(func() {
				ts.Close()
				recv.Close()
			})
			sink, err := NewHTTPSink(ts.URL+"/ship", "node-a", nil)
			if err != nil {
				t.Fatal(err)
			}
			return sink, filepath.Join(root, "node-a")
		}},
	}
	for _, row := range rows {
		for _, b := range backends {
			t.Run(row.name+"/"+b.name, func(t *testing.T) {
				sink, dir := b.open(t)
				row.run(t, sink, dir)
			})
		}
	}
}

// TestDirSinkResealAddsNoEntry: every boot re-seals the files on disk, and
// a re-seal of a file the manifest lists at that size and checksum appends
// nothing, so three boots of one directory leave one manifest line per
// sealed file. A file a crash kept from its entry, after the rename and
// before the append, gets it at the next boot.
func TestDirSinkResealAddsNoEntry(t *testing.T) {
	root, sinkDir := t.TempDir(), t.TempDir()
	files := []string{"traces/trace-000001.jsonl", "traces/trace-000002.jsonl"}
	for _, name := range files {
		writeFile(t, filepath.Join(root, filepath.FromSlash(name)), []byte(name+"\n"))
	}
	manifest := filepath.Join(sinkDir, ManifestName)
	for boot := 1; boot <= 3; boot++ {
		sink, err := NewDirSink(sinkDir)
		if err != nil {
			t.Fatal(err)
		}
		s := NewMulti(root, []Sink{sink}, Options{Sync: true})
		for _, name := range files { // as the logs announce them when they open
			s.Sealed(name)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(readFile(t, manifest)), "\n")
		lines = lines[:len(lines)-1] // after the last newline
		if len(lines) != len(files) {
			t.Fatalf("boot %d: the manifest holds %d lines for %d sealed files:\n%s", boot, len(lines), len(files), strings.Join(lines, ""))
		}
		if boot == 1 {
			// The crash: the trace segment is in place, its entry is not.
			kept := ""
			for _, line := range lines {
				if strings.Contains(line, files[0]) {
					kept = line
				}
			}
			writeFile(t, manifest, []byte(kept))
		}
	}
	if err := VerifyReplica(sinkDir); err != nil {
		t.Fatal(err)
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
	writeFile(t, filepath.Join(root, "traces/trace-000001.jsonl"), first)

	s1 := NewMulti(root, []Sink{sink}, Options{Sync: true})
	s1.Changed("traces/trace-000001.jsonl")
	// "Crash": abandon s1 without Close. The sink holds a part file.
	partPath := filepath.Join(sink.root, "traces/trace-000001.jsonl"+partSuffix)
	if got := readFile(t, partPath); string(got) != string(first) {
		t.Fatalf("sink part holds %d bytes, want %d", len(got), len(first))
	}

	// The file grows after the crash; a fresh shipper must ship only the
	// tail (the sink offset proves resume: the part already has len(first)
	// bytes and an offset-0 restart would be detectable — instead, its
	// content must remain a strict prefix-extension).
	tail := []byte("tail after restart\n")
	all := append(append([]byte{}, first...), tail...)
	writeFile(t, filepath.Join(root, "traces/trace-000001.jsonl"), all)
	s2 := NewMulti(root, []Sink{sink}, Options{Sync: true})
	defer s2.Close()
	s2.Sealed("traces/trace-000001.jsonl")
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats(); got.Bytes != int64(len(tail)) {
		t.Fatalf("fresh shipper shipped %d bytes, want only the %d-byte tail (resume failed)", got.Bytes, len(tail))
	}
	got := readFile(t, filepath.Join(sink.root, "traces/trace-000001.jsonl"))
	if string(got) != string(all) {
		t.Fatalf("sealed content mismatch: %d bytes vs %d", len(got), len(all))
	}
	m, _ := ReadManifest(sink.root)
	if e := m["traces/trace-000001.jsonl"]; e.SHA256 != sha(all) {
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
	s := NewMulti(root, []Sink{sink}, Options{Sync: true})
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

// TestShipperMissingFileIsDone: a queued file missing locally (the logs
// delete nothing, but someone may have) must resolve as done, not retry
// forever.
func TestShipperMissingFileIsDone(t *testing.T) {
	root := t.TempDir()
	sink, err := NewDirSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewMulti(root, []Sink{sink}, Options{})
	defer s.Close()
	s.Sealed("traces/trace-000009.jsonl") // never existed locally
	if err := s.Flush(); err != nil {
		t.Fatalf("missing file errored: %v", err)
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
	if err := sink.Append("traces/trace-000001.jsonl", 0, sealed); err != nil {
		t.Fatal(err)
	}
	if err := sink.Seal("traces/trace-000001.jsonl", int64(len(sealed)), sha(sealed)); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(sinkDir, "traces/trace-000002.jsonl"+partSuffix), []byte("active tail"))

	dest := t.TempDir()
	if _, err := Restore([]string{sinkDir}, dest); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, filepath.Join(dest, "traces/trace-000001.jsonl")); string(got) != string(sealed) {
		t.Fatalf("restored sealed file = %q", got)
	}
	if got := readFile(t, filepath.Join(dest, "traces/trace-000002.jsonl")); string(got) != "active tail" {
		t.Fatalf("restored part = %q", got)
	}

	// Corrupt the sealed replica: Restore must refuse and quarantine.
	writeFile(t, filepath.Join(sinkDir, "traces/trace-000001.jsonl"), []byte("bitrot"))
	_, err = Restore([]string{sinkDir}, t.TempDir())
	if !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("restore of corrupted replica = %v, want ErrChecksumMismatch", err)
	}
	if _, err := os.Stat(filepath.Join(sinkDir, "traces/trace-000001.jsonl"+quarantineSuffix)); err != nil {
		t.Fatalf("corrupted file not quarantined: %v", err)
	}
}

// TestRestoreFirstLifeReplica: in a node's first life nothing is sealed
// yet, and its replica is the log's active segment alone, in progress
// under traces/. That replica verifies and restores, the segment under
// its bare name; a sink directory that holds no log is refused.
func TestRestoreFirstLifeReplica(t *testing.T) {
	sinkDir := t.TempDir()
	if err := VerifyReplica(sinkDir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("an empty replica verified as %v, want os.ErrNotExist", err)
	}
	writeFile(t, filepath.Join(sinkDir, "traces", "trace-000001.jsonl"+partSuffix), []byte("active tail"))
	if err := VerifyReplica(sinkDir); err != nil {
		t.Fatal(err)
	}
	dest := filepath.Join(t.TempDir(), "restored")
	if _, err := Restore([]string{sinkDir}, dest); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, filepath.Join(dest, "traces", "trace-000001.jsonl")); string(got) != "active tail" {
		t.Fatalf("restored segment = %q", got)
	}
}

// TestRestoreRefusesLostSegment: nothing deletes a sealed segment of the
// log, so one the manifest lists and the replica lacks took its records
// with it. The replica fails verification and Restore falls through to
// the next one.
func TestRestoreRefusesLostSegment(t *testing.T) {
	var replicas []string
	for range 2 {
		sinkDir := t.TempDir()
		sink, err := NewDirSink(sinkDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"traces/trace-000001.jsonl", "traces/trace-000002.jsonl"} {
			data := []byte(name + "\n")
			if err := sink.Append(name, 0, data); err != nil {
				t.Fatal(err)
			}
			if err := sink.Seal(name, int64(len(data)), sha(data)); err != nil {
				t.Fatal(err)
			}
		}
		if err := VerifyReplica(sinkDir); err != nil {
			t.Fatalf("a whole replica: %v", err)
		}
		replicas = append(replicas, sinkDir)
	}
	if err := os.Remove(filepath.Join(replicas[0], "traces", "trace-000001.jsonl")); err != nil {
		t.Fatal(err)
	}
	if err := VerifyReplica(replicas[0]); !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), "trace-000001.jsonl") {
		t.Fatalf("a replica without a sealed segment verified as %v", err)
	}
	used, err := Restore(replicas, filepath.Join(t.TempDir(), "restored"))
	if err != nil || used != replicas[1] {
		t.Fatalf("Restore used %s, %v; want the whole replica %s", used, err, replicas[1])
	}
}

// TestRestoreRefusesCorruptManifest: a whole manifest line that does not
// decode leaves a replica unable to say what it holds — the sealed files
// listed after it would be neither verified nor restored — so the replica
// fails verification like one whose bytes no longer match, and Restore
// falls through to the next one. The bad replica is left as it was.
func TestRestoreRefusesCorruptManifest(t *testing.T) {
	bad, good := t.TempDir(), t.TempDir()
	names := []string{"traces/trace-000001.jsonl", "traces/trace-000002.jsonl"}
	for _, dir := range []string{bad, good} {
		sink, err := NewDirSink(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			data := []byte(name + "\n")
			if err := sink.Append(name, 0, data); err != nil {
				t.Fatal(err)
			}
			if err := sink.Seal(name, int64(len(data)), sha(data)); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(bad, ManifestName)
	entries := strings.SplitAfter(string(readFile(t, path)), "\n")
	corrupt := entries[0] + `{"name":oops}` + "\n" + entries[1]
	writeFile(t, path, []byte(corrupt))

	if _, err := ReadManifest(bad); !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("ReadManifest of a corrupt manifest = %v, want ErrChecksumMismatch", err)
	}
	if err := VerifyReplica(bad); !errors.Is(err, ErrChecksumMismatch) {
		t.Fatalf("VerifyReplica of a corrupt manifest = %v, want ErrChecksumMismatch", err)
	}
	dest := filepath.Join(t.TempDir(), "restored")
	src, err := Restore([]string{bad, good}, dest)
	if err != nil {
		t.Fatal(err)
	}
	if src != good {
		t.Fatalf("restored from %s, want the replica with a sound manifest %s", src, good)
	}
	for _, name := range names {
		if got := readFile(t, filepath.Join(dest, name)); string(got) != name+"\n" {
			t.Fatalf("restored %s = %q", name, got)
		}
	}
	if got := readFile(t, path); string(got) != corrupt {
		t.Fatalf("the corrupt manifest was rewritten: %q", got)
	}
}

// TestShipperAsyncRetriesAfterSinkFailure: with a sink that fails first,
// the background loop must retry with backoff until it heals, counting
// the retries.
func TestShipperAsyncRetriesAfterSinkFailure(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "traces/trace-000001.jsonl"), []byte("data"))
	flaky := &flakySink{inner: mustDirSink(t), failFirst: 2}
	s := NewMulti(root, []Sink{flaky}, Options{Interval: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond})
	defer s.Close()
	s.Sealed("traces/trace-000001.jsonl")
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

// TestKeptHandleSinkContract: appends through a DirSink's kept part keep
// the Sink contract — Offset, Seal, the restart at zero, and a stale
// offset after the part grew behind the sink's back.
func TestKeptHandleSinkContract(t *testing.T) {
	sink := mustDirSink(t)
	const name = "traces/trace-000001.jsonl"
	part := filepath.Join(sink.root, "traces", "trace-000001.jsonl"+partSuffix)
	var want []byte
	for i, chunk := range []string{"one\n", "two\n", "three\n"} {
		if err := sink.Append(name, int64(len(want)), []byte(chunk)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, chunk...)
		if off, err := sink.Offset(name); err != nil || off != int64(len(want)) {
			t.Fatalf("offset after append %d = %d, %v; want %d", i, off, err, len(want))
		}
	}
	if got := readFile(t, part); string(got) != string(want) {
		t.Fatalf("part holds %q, want %q", got, want)
	}

	// A restart at zero truncates, and appends then continue from it.
	if err := sink.Append(name, 0, []byte("again\n")); err != nil {
		t.Fatal(err)
	}
	if err := sink.Append(name, 6, []byte("more\n")); err != nil {
		t.Fatal(err)
	}
	want = []byte("again\nmore\n")
	if got := readFile(t, part); string(got) != string(want) {
		t.Fatalf("part after restart holds %q, want %q", got, want)
	}

	// Grown behind the sink's back: the offset the sink wrote to is stale.
	f, err := os.OpenFile(part, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("foreign\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := sink.Append(name, int64(len(want)), []byte("x")); !errors.Is(err, ErrOffsetMismatch) {
		t.Fatalf("stale append = %v, want ErrOffsetMismatch", err)
	}
	want = append(want, "foreign\n"...)
	if off, _ := sink.Offset(name); off != int64(len(want)) {
		t.Fatalf("offset = %d, want %d", off, len(want))
	}

	// Resumed at the part's real size, then sealed: renamed and manifested.
	if err := sink.Append(name, int64(len(want)), []byte("tail\n")); err != nil {
		t.Fatal(err)
	}
	want = append(want, "tail\n"...)
	if err := sink.Seal(name, int64(len(want)), sha(want)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(part); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("part still present after seal: %v", err)
	}
	if got := readFile(t, filepath.Join(sink.root, filepath.FromSlash(name))); string(got) != string(want) {
		t.Fatalf("sealed file holds %q, want %q", got, want)
	}
	if m, _ := ReadManifest(sink.root); m[name].SHA256 != sha(want) {
		t.Fatalf("manifest entry %+v", m[name])
	}
}

// TestKeptHandleSealedThenFoldedIsDone: a growing file whose handle the
// lane keeps, then sealed, then deleted by hand before the lane runs ends
// done, with nothing sealed at the sink. The lane's loop is not started,
// so nothing ships between the steps.
func TestKeptHandleSealedThenFoldedIsDone(t *testing.T) {
	root := t.TempDir()
	sink := mustDirSink(t)
	const name = "traces/trace-000002.jsonl"
	path := filepath.Join(root, name)
	writeFile(t, path, []byte("r1\n"))
	ln := newLane(root, sink, Options{})
	st := ln.state(name)
	ln.changed(name)
	if err := ln.flush(); err != nil {
		t.Fatal(err)
	}
	if st.f == nil {
		t.Fatal("growing file's handle was not kept")
	}
	writeFile(t, path, []byte("r1\nr2\n"))
	ln.sealed(name)
	if st.f != nil {
		t.Fatal("sealed file's handle was kept")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := ln.flush(); err != nil {
		t.Fatalf("deleted file errored: %v", err)
	}
	if !st.done || len(ln.dirty) != 0 {
		t.Fatalf("deleted file: done=%v, dirty=%v", st.done, ln.dirty)
	}
	if m, _ := ReadManifest(sink.root); len(m) != 0 {
		t.Fatalf("deleted file was sealed: %v", m)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKeptHandlesClosed: no kept handle outlives its file or its owner —
// the descriptors open on the test's directories fall back to none after a
// seal, after Shipper.Close and after Receiver.Close. Only those count:
// files an earlier test abandoned close whenever the collector finds them.
func TestKeptHandlesClosed(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd")
	}
	root, sinkDir, recvDir := t.TempDir(), t.TempDir(), t.TempDir()
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range entries {
			target, _ := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
			for _, dir := range []string{root, sinkDir, recvDir} {
				if strings.HasPrefix(target, dir+string(filepath.Separator)) {
					n++
				}
			}
		}
		return n
	}
	writeFile(t, filepath.Join(root, "traces", "trace-000001.jsonl"), []byte("t1\n"))
	writeFile(t, filepath.Join(root, "traces", "trace-000002.jsonl"), []byte("t2\n"))
	sink, err := NewDirSink(sinkDir)
	if err != nil {
		t.Fatal(err)
	}

	s := NewMulti(root, []Sink{sink}, Options{Sync: true, Interval: time.Hour})
	s.Changed("traces/trace-000001.jsonl")
	s.Changed("traces/trace-000002.jsonl")
	if got := fds(); got != 4 {
		t.Fatalf("%d descriptors with two growing files shipped, want 4 (one per end)", got)
	}
	s.Sealed("traces/trace-000001.jsonl")
	if got := fds(); got != 2 {
		t.Fatalf("%d descriptors after a seal, want 2", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fds(); got != 0 {
		t.Fatalf("%d descriptors after Shipper.Close, want 0", got)
	}

	recv, err := NewReceiver(recvDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"a", "b"} {
		w := httptest.NewRecorder()
		recv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/"+node+"/append?name=traces/trace-000001.jsonl&off=0", strings.NewReader("t1\n")))
		if w.Code != http.StatusOK {
			t.Fatalf("append for %s: %d %s", node, w.Code, w.Body)
		}
	}
	if got := fds(); got != 2 {
		t.Fatalf("%d descriptors with two pushed parts, want 2", got)
	}
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fds(); got != 0 {
		t.Fatalf("%d descriptors after Receiver.Close, want 0", got)
	}
}
