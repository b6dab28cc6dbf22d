package shipper

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// ManifestName is the sink-side index of sealed files: one JSON line per
// seal with the file's name, size and SHA-256. Appended (fsynced) after
// the sealed bytes are verified and renamed into place, so a manifest
// entry always describes a whole, checksummed file; duplicate entries for
// one name can appear after a restart-and-reseal and the last one wins.
const ManifestName = "MANIFEST.jsonl"

// partSuffix marks an in-progress (resumable) file at the sink; the bare
// name is only ever a verified, sealed file.
const partSuffix = ".part"

// quarantineSuffix is where Seal and Restore move content that failed its
// checksum — kept for post-mortems, ignored by every read path.
const quarantineSuffix = ".quarantine"

// ManifestEntry is one sealed file in the manifest.
type ManifestEntry struct {
	Name   string    `json:"name"`
	Size   int64     `json:"size"`
	SHA256 string    `json:"sha256"`
	Time   time.Time `json:"time"`
}

// DirSink stores shipped files under a local directory — the
// local-directory sink (shared filesystem, mounted object store) and the
// storage behind the peer-push Receiver. In-progress files carry a .part
// suffix and resume by size; Seal verifies the checksum, renames the part
// to its final name and appends the manifest entry. A crash mid-ship
// leaves a resumable part plus a manifest describing only whole files.
type DirSink struct {
	root string

	mu sync.Mutex // serializes seals and manifest appends
}

// NewDirSink returns a sink rooted at dir, creating it if needed.
func NewDirSink(dir string) (*DirSink, error) {
	if dir == "" {
		return nil, errors.New("shipper: empty sink directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shipper: %w", err)
	}
	return &DirSink{root: dir}, nil
}

// validName rejects names that would escape the sink root.
func validName(name string) error {
	if name == "" || strings.HasPrefix(name, "/") || strings.Contains(name, `\`) {
		return fmt.Errorf("shipper: invalid name %q", name)
	}
	for _, part := range strings.Split(name, "/") {
		if part == "" || part == "." || part == ".." {
			return fmt.Errorf("shipper: invalid name %q", name)
		}
	}
	if name == ManifestName {
		return fmt.Errorf("shipper: reserved name %q", name)
	}
	return nil
}

// paths returns the final and part paths for name.
func (d *DirSink) paths(name string) (final, part string, err error) {
	if err := validName(name); err != nil {
		return "", "", err
	}
	final = filepath.Join(d.root, filepath.FromSlash(name))
	return final, final + partSuffix, nil
}

// Offset implements Sink: the size of the in-progress part, or of the
// sealed file when no part exists, or zero.
func (d *DirSink) Offset(name string) (int64, error) {
	final, part, err := d.paths(name)
	if err != nil {
		return 0, err
	}
	if st, err := os.Stat(part); err == nil {
		return st.Size(), nil
	}
	if st, err := os.Stat(final); err == nil {
		return st.Size(), nil
	}
	return 0, nil
}

// Append implements Sink: writes data to the part file at off. Offset
// zero restarts the part from scratch (the shipper's path for a locally
// rewritten file); any other offset must match the part's current size.
func (d *DirSink) Append(name string, off int64, data []byte) error {
	_, part, err := d.paths(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(part), 0o755); err != nil {
		return fmt.Errorf("shipper: %w", err)
	}
	flags := os.O_WRONLY | os.O_CREATE
	if off == 0 {
		flags |= os.O_TRUNC
	} else {
		st, err := os.Stat(part)
		if err != nil || st.Size() != off {
			have := int64(0)
			if err == nil {
				have = st.Size()
			}
			return fmt.Errorf("shipper: %s: append at %d, have %d: %w", name, off, have, ErrOffsetMismatch)
		}
		flags |= os.O_APPEND
	}
	f, err := os.OpenFile(part, flags, 0o644)
	if err != nil {
		return fmt.Errorf("shipper: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("shipper: writing %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("shipper: %w", err)
	}
	return nil
}

// Seal implements Sink: verifies the part (or an already-sealed file)
// against size and sum, renames it into place and appends the manifest
// entry. Content failing the checksum is quarantined and the seal returns
// ErrChecksumMismatch; a short part returns ErrOffsetMismatch so the
// shipper ships the missing tail and retries.
func (d *DirSink) Seal(name string, size int64, sum string) error {
	final, part, err := d.paths(name)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	src := part
	if _, err := os.Stat(part); errors.Is(err, os.ErrNotExist) {
		// Re-seal of an already-finalized file (restart after a crash
		// between rename and manifest append): verify in place.
		src = final
	}
	gotSum, gotSize, err := hashCopy(src, "")
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("shipper: sealing %s: nothing shipped: %w", name, ErrOffsetMismatch)
	}
	if err != nil {
		return fmt.Errorf("shipper: sealing %s: %w", name, err)
	}
	if gotSize < size {
		return fmt.Errorf("shipper: sealing %s: have %d bytes, want %d: %w", name, gotSize, size, ErrOffsetMismatch)
	}
	if gotSize != size || gotSum != sum {
		os.Rename(src, final+quarantineSuffix)
		return fmt.Errorf("shipper: sealing %s: %w", name, ErrChecksumMismatch)
	}
	if src == part {
		if err := fsyncFile(part); err != nil {
			return fmt.Errorf("shipper: sealing %s: %w", name, err)
		}
		if err := os.Rename(part, final); err != nil {
			return fmt.Errorf("shipper: sealing %s: %w", name, err)
		}
	}
	return d.appendManifest(ManifestEntry{Name: name, Size: size, SHA256: sum, Time: time.Now()})
}

// appendManifest records one sealed file. Called with d.mu held.
func (d *DirSink) appendManifest(e ManifestEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("shipper: manifest: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(d.root, ManifestName), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("shipper: manifest: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("shipper: manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("shipper: manifest: %w", err)
	}
	return f.Close()
}

// ReadManifest returns a sink directory's sealed-file index, last entry
// per name winning. A torn final line (crash mid-append) ends the
// manifest at the last whole entry; a missing manifest is empty.
func ReadManifest(dir string) (map[string]ManifestEntry, error) {
	f, err := os.Open(filepath.Join(dir, ManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return map[string]ManifestEntry{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shipper: manifest: %w", err)
	}
	defer f.Close()
	out := map[string]ManifestEntry{}
	dec := json.NewDecoder(f)
	for {
		var e ManifestEntry
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			// Torn tail: the entries before it are whole.
			return out, nil
		}
		out[e.Name] = e
	}
}

// fsyncFile syncs the file at path.
func fsyncFile(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
