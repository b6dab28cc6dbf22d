package shipper

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"enhancedbhpo/internal/serve/seglog"
)

// ManifestName is the sink-side index of sealed files: one JSON line per
// seal with the file's name, size and SHA-256. Appended (fsynced) after
// the sealed bytes are verified and renamed into place, so a manifest
// entry always describes a whole, checksummed file. A re-seal of a file
// the manifest already lists at that size and checksum appends nothing; a
// name sealed again with other content gets a second entry, and the last
// one wins.
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
//
// A part that is still growing stays open with the size written to it, so
// an Append at that size is one fstat and one write. Any other offset, an
// offset of zero, a failed write, Seal and Close drop the handle; the
// append then opens the part by path and checks its size as it always did.
type DirSink struct {
	root string

	mu sync.Mutex // serializes seals and manifest appends

	pmu   sync.Mutex // guards parts; held across an Append
	parts map[string]*openPart
}

// openPart is a kept .part handle and the bytes the sink wrote to it.
type openPart struct {
	f    *os.File
	size int64
}

// NewDirSink returns a sink rooted at dir, creating it if needed.
func NewDirSink(dir string) (*DirSink, error) {
	if dir == "" {
		return nil, errors.New("shipper: empty sink directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shipper: %w", err)
	}
	return &DirSink{root: dir, parts: map[string]*openPart{}}, nil
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
	d.pmu.Lock()
	defer d.pmu.Unlock()
	if p := d.parts[name]; p != nil {
		if off != 0 && off == p.size {
			// The fstat catches a part grown or cut behind the sink's back.
			if st, err := p.f.Stat(); err == nil && st.Size() == off {
				return d.write(name, p, data)
			}
		}
		d.dropPart(name)
	}
	if err := os.MkdirAll(filepath.Dir(part), 0o755); err != nil {
		return fmt.Errorf("shipper: %w", err)
	}
	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
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
	}
	f, err := os.OpenFile(part, flags, 0o644)
	if err != nil {
		return fmt.Errorf("shipper: %w", err)
	}
	p := &openPart{f: f, size: off}
	d.parts[name] = p
	return d.write(name, p, data)
}

// write appends data to a kept part, dropping the handle if it fails.
// Called with d.pmu held.
func (d *DirSink) write(name string, p *openPart, data []byte) error {
	if _, err := p.f.Write(data); err != nil {
		d.dropPart(name)
		return fmt.Errorf("shipper: writing %s: %w", name, err)
	}
	p.size += int64(len(data))
	return nil
}

// dropPart closes name's kept part, if any. Called with d.pmu held. Only
// Close reports the error: each write already handed its bytes to the
// file, and Seal syncs the part by path before it renames it.
func (d *DirSink) dropPart(name string) error {
	p := d.parts[name]
	if p == nil {
		return nil
	}
	delete(d.parts, name)
	return p.f.Close()
}

// Close closes every part the sink keeps open. The sink stays usable: the
// next Append to a part opens it again.
func (d *DirSink) Close() error {
	d.pmu.Lock()
	defer d.pmu.Unlock()
	var err error
	for name := range d.parts {
		err = errors.Join(err, d.dropPart(name))
	}
	return err
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
	d.pmu.Lock()
	d.dropPart(name)
	d.pmu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	src := part
	if _, err := os.Stat(part); errors.Is(err, os.ErrNotExist) {
		// Re-seal of an already-finalized file (every boot re-seals what
		// is on disk): verify in place.
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
	} else if m, err := ReadManifest(d.root); err == nil && m[name].Size == size && m[name].SHA256 == sum {
		// Every boot re-seals what is on disk: a file the manifest lists as
		// it is adds nothing. One a crash kept from its entry, between the
		// rename and the append, gets it now.
		return nil
	}
	return d.appendManifest(ManifestEntry{Name: name, Size: size, SHA256: sum, Time: time.Now()})
}

// appendManifest records one sealed file through seglog, fsynced by the
// close: a torn tail an earlier crash left is cut off at open and a write
// cut short is undone, so no entry ever lands behind half a line where
// ReadManifest would stop before it. Called with d.mu held.
func (d *DirSink) appendManifest(e ManifestEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("shipper: manifest: %w", err)
	}
	f, err := seglog.OpenFile(filepath.Join(d.root, ManifestName))
	if err != nil {
		return fmt.Errorf("shipper: manifest: %w", err)
	}
	_, err = f.Append(append(line, '\n'), false)
	if err = errors.Join(err, f.Close()); err != nil {
		return fmt.Errorf("shipper: manifest: %w", err)
	}
	return nil
}

// ReadManifest returns a sink directory's sealed-file index, last entry
// per name winning. A torn final line (crash mid-append) ends the
// manifest at the last whole entry; a missing manifest is empty. A whole
// line that does not decode fails with an error matching
// ErrChecksumMismatch: the replica no longer says what it holds.
func ReadManifest(dir string) (map[string]ManifestEntry, error) {
	out := map[string]ManifestEntry{}
	err := seglog.ReadLines(filepath.Join(dir, ManifestName), func(line []byte) error {
		var e ManifestEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("%w: %w", ErrChecksumMismatch, err)
		}
		out[e.Name] = e
		return nil
	})
	if errors.Is(err, os.ErrNotExist) {
		return out, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shipper: manifest: %w", err)
	}
	return out, nil
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
