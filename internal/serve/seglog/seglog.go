// Package seglog is the one writer under bhpod's append-only JSONL logs:
// the journal and the trace log append through a Log, the coordinator's
// membership log and a sink's manifest through a File; ReadLines reads
// the journal, the membership log and the manifest back. A line is one write, fsynced when the
// caller asks. A write that fails is undone by truncating the file back
// to its size before it, so no reader meets half a line with whole ones
// behind it; if the truncation fails too, the file ends in what readers
// take for a torn tail and refuses every later append. Every process life
// writes a segment of its own — the one after the newest, created at its
// first line — so a torn line a crash left only ever ends an earlier
// life's last segment. A segment that reaches the size limit is sealed:
// fsynced, closed, announced, never written again.
package seglog

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ErrClosed is what Append returns once its Log has been closed.
var ErrClosed = errors.New("log closed")

// Name is the file name of segment seq of the log whose segments are
// named prefix: trace-000007.jsonl.
func Name(prefix string, seq int) string { return fmt.Sprintf("%s%06d.jsonl", prefix, seq) }

// File is one append-only file of whole lines; its owner serializes
// appends.
type File struct {
	f      *os.File
	size   int64
	wedged error // the failed write that could not be undone
}

// OpenFile opens path for appending, creating it if needed, after cutting
// off a torn tail: a last line without its newline, which a crash or a
// write cut short leaves and behind which readers would never find what
// is appended next.
func OpenFile(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := cutTornTail(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &File{f: f, size: size}, nil
}

// cutTornTail truncates f after its last newline and returns the size
// left. Only a file whose last byte is not a newline is read whole.
func cutTornTail(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return 0, err
	}
	last := []byte{0}
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return 0, err
	}
	if last[0] == '\n' {
		return st.Size(), nil
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		return 0, err
	}
	whole := int64(bytes.LastIndexByte(data, '\n') + 1)
	return whole, f.Truncate(whole)
}

// Append writes line, newline included, in one write and, with sync,
// fsyncs it. It returns how many of the line's bytes the file kept — all
// once the write succeeded, even if the fsync failed — and errors that
// name the file.
func (f *File) Append(line []byte, sync bool) (int, error) {
	if f.wedged != nil {
		return 0, f.wedged
	}
	if n, err := f.f.Write(line); err != nil {
		if terr := f.f.Truncate(f.size); terr != nil {
			f.wedged = fmt.Errorf("%s ends in half a line, nothing may follow it: %w", f.f.Name(), errors.Join(err, terr))
			return n, f.wedged
		}
		return 0, err
	}
	f.size += int64(len(line))
	if sync {
		return len(line), f.f.Sync()
	}
	return len(line), nil
}

// Close fsyncs and closes the file.
func (f *File) Close() error { return errors.Join(f.f.Sync(), f.f.Close()) }

// ReadLines calls fn with each whole line of the file at path, newline
// included, in order. The bytes after the last newline are a torn tail —
// a crash or a cut write stopped that line — and end the file unread. An
// error from fn means a whole line is corrupt; it is returned naming the
// file and the line's number. A file that cannot be opened returns the
// open's error, so a missing one matches os.ErrNotExist.
func ReadLines(path string, fn func(line []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for n := 1; ; n++ {
		line, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := fn(line); err != nil {
			return fmt.Errorf("%s line %d: %w", path, n, err)
		}
	}
}

// Options tunes a Log.
type Options struct {
	// MaxBytes seals a segment once it has grown to this size; 0 or
	// negative never rotates.
	MaxBytes int64
	// OnChange, when non-nil, is called with a segment's name after each
	// append that did not seal it (false) and once when it is sealed
	// (true), in append order with the log's lock held: it must not call
	// back into the log.
	OnChange func(name string, sealed bool)
}

// Log is the segmented log dir/<prefix>NNNNNN.jsonl. Safe for concurrent
// use.
type Log struct {
	dir, prefix string
	opts        Options

	mu     sync.Mutex
	seq    int   // the active segment's
	active *File // nil until the active segment's first line
	closed bool
}

// Open returns the log whose first segment this life is seq — by rule the
// one after the newest on disk. Nothing is created before the first
// Append.
func Open(dir, prefix string, seq int, opts Options) *Log {
	return &Log{dir: dir, prefix: prefix, opts: opts, seq: seq}
}

// Active returns the name of the segment that receives appends.
func (l *Log) Active() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Name(l.prefix, l.seq)
}

// Append writes line to the active segment as File.Append does, creating
// the segment at its first line and sealing it once it has grown to
// MaxBytes. After Close it writes nothing and returns ErrClosed.
func (l *Log) Append(line []byte, sync bool) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	name := Name(l.prefix, l.seq)
	if l.active == nil {
		f, err := OpenFile(filepath.Join(l.dir, name))
		if err != nil {
			return 0, err
		}
		l.active = f
	}
	n, err := l.active.Append(line, sync)
	if err != nil {
		return n, err
	}
	sealed := l.opts.MaxBytes > 0 && l.active.size >= l.opts.MaxBytes
	if sealed {
		// Sealed even if the fsync or the close fails: nothing is
		// written to it again.
		err = l.active.Close()
		l.active, l.seq = nil, l.seq+1
	}
	if l.opts.OnChange != nil {
		l.opts.OnChange(name, sealed)
	}
	return n, err
}

// Close fsyncs and closes the active segment, for good, so a writer that
// outlives its owner's shutdown cannot write beside whoever opens the
// directory next. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := l.active
	l.active, l.closed = nil, true
	if f == nil {
		return nil
	}
	return f.Close()
}
