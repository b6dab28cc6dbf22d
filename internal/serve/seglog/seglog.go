// Package seglog owns bhpod's append-only JSONL logs: their writer, the
// listing and numbering of their segments, and their reader. The trace
// log is a segmented Log; the coordinator's membership log and a sink's
// manifest are single Files. A line is one write, fsynced when the caller
// asks. A write that fails is undone by truncating the file back to its
// size before it, so no reader meets half a line with whole ones behind
// it; if the truncation fails too, the file ends in what readers take for
// a torn tail and refuses every later append.
//
// A log is the files dir/<prefix>NNNNNN.jsonl of one prefix, numbered in
// one sequence. Every process life writes a segment of its own, the one
// after the newest file, created at its first line, so a torn line a
// crash left only ever ends an earlier life's last segment; every
// file Open finds is therefore final, and is announced as sealed. A
// segment that reaches the size limit is sealed: fsynced, closed,
// announced, never written again. Read hands out a log's lines, one
// segment read whole at a time, and reports a segment missing from the
// sequence.
package seglog

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// ErrClosed is what Append returns once its Log has been closed.
var ErrClosed = errors.New("log closed")

// SkipSegment, returned by a Read callback, ends the segment being read:
// Read goes on with the next one. Read itself never returns it.
var SkipSegment = errors.New("skip the rest of this segment")

// Name is the file name of segment seq of the log whose segments are
// named prefix: trace-000007.jsonl.
func Name(prefix string, seq int) string { return fmt.Sprintf("%s%06d.jsonl", prefix, seq) }

// Segment is one file of a log on disk.
type Segment struct {
	Name string
	Seq  int
	Size int64
}

// List returns the files of dir that Name makes of prefix, with their
// sizes, in sequence order. A missing directory holds none.
func List(dir, prefix string) ([]Segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	var segs []Segment
	for _, e := range entries {
		mid, ok := strings.CutPrefix(e.Name(), prefix)
		seq, err := strconv.Atoi(strings.TrimSuffix(mid, ".jsonl"))
		if !ok || err != nil || e.IsDir() || e.Name() != Name(prefix, seq) {
			continue
		}
		seg := Segment{Name: e.Name(), Seq: seq}
		if info, err := e.Info(); err == nil {
			seg.Size = info.Size()
		}
		segs = append(segs, seg)
	}
	slices.SortFunc(segs, func(a, b Segment) int { return cmp.Compare(a.Seq, b.Seq) })
	return segs, nil
}

// Read calls fn with each whole line of segs, in order, without its
// newline. Each segment is read whole and its lines alias that buffer.
// The bytes after a segment's last newline are a torn tail — a crash or a
// cut write stopped that line — and end the segment unread; so does
// SkipSegment from fn. Any other error from fn means a whole line is
// corrupt: Read stops and returns it naming the file and the line's
// number. A segment that cannot be read returns the read's error, so a
// missing one matches os.ErrNotExist. A sequence number missing between
// two of segs is an error naming the last such, returned once every
// segment is read.
func Read(dir string, segs []Segment, fn func(line []byte) error) error {
	var gap error
	for i, seg := range segs {
		if i > 0 && seg.Seq != segs[i-1].Seq+1 {
			prefix := strings.TrimSuffix(seg.Name, Name("", seg.Seq))
			gap = fmt.Errorf("missing segment %s (found %s after %s)", Name(prefix, segs[i-1].Seq+1), seg.Name, segs[i-1].Name)
		}
		path := filepath.Join(dir, seg.Name)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for n := 1; ; n++ {
			end := bytes.IndexByte(data, '\n')
			if end < 0 {
				break
			}
			if err := fn(data[:end]); errors.Is(err, SkipSegment) {
				break
			} else if err != nil {
				return fmt.Errorf("%s line %d: %w", path, n, err)
			}
			data = data[end+1:]
		}
	}
	return gap
}

// ReadLines reads the one file at path as Read reads a segment.
func ReadLines(path string, fn func(line []byte) error) error {
	return Read(filepath.Dir(path), []Segment{{Name: filepath.Base(path)}}, fn)
}

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

// Options tunes a Log.
type Options struct {
	// MaxBytes seals a segment once it has grown to this size; 0 or
	// negative never rotates.
	MaxBytes int64
	// OnChange, when non-nil, is called with a segment's name once with
	// true for each file Open finds, in sequence order, then after each
	// append that did not seal its segment (false) and once when it is
	// sealed (true), in append order with the log's lock held: it must not
	// call back into the log.
	OnChange func(name string, sealed bool)
}

// Log is the segmented log of dir's files of its prefix. Safe for
// concurrent use.
type Log struct {
	dir, prefix string
	opts        Options

	mu     sync.Mutex
	seq    int    // the active segment's
	name   string // Name(prefix, seq), made once per segment
	active *File  // nil until the active segment's first line
	closed bool
}

// Open creates dir if needed, announces every file of prefix already in
// it as sealed and returns the log that appends to files of prefix, this
// life's first being the one after the newest of them. Nothing is created
// before the first Append.
func Open(dir string, opts Options, prefix string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := List(dir, prefix)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, prefix: prefix, opts: opts, seq: 1}
	for _, seg := range segs {
		if opts.OnChange != nil {
			opts.OnChange(seg.Name, true)
		}
		l.seq = seg.Seq + 1
	}
	l.name = Name(l.prefix, l.seq)
	return l, nil
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
	name := l.name
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
		l.name = Name(l.prefix, l.seq)
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
