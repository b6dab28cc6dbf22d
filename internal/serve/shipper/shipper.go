// Package shipper replicates a bhpod data directory — journal and trace
// segments — to one or more sinks, so a
// *replacement* node (not just a restarted process) can rebuild a dead
// machine's job table with journal.Replay and serve its traces
// byte-identically.
//
// The unit of shipping is one file, addressed by its path relative to the
// data directory ("journal-000003.jsonl", "traces/trace-000002.jsonl").
// Files move in two phases matching how the journal and trace store write
// them:
//
//   - a *changed* file (the active journal or trace segment) ships
//     incrementally: the shipper reads the local bytes past the sink's
//     resumable offset and appends them. A file the sink holds more of
//     than exists locally (a sink that was ahead of the replica this node
//     was restored from) restarts at offset zero.
//   - a *sealed* file (a rotated segment, or one an earlier life left,
//     which each log announces when it opens) ships its remaining tail
//     and is then sealed at the sink with its size and SHA-256, which
//     records it in the sink's checksummed manifest once. Sealed content
//     is what Restore verifies.
//
// With several sinks (bhpod -ship-to repeated) the shipper replicates
// N-way: every sink runs its own *lane* — an independent resumable
// offset per file, its own dirty set, its own retry loop with capped
// backoff — so one sink being down never stalls the others, and the
// lagging sink catches up from its own offsets when it returns. Restore
// picks the first replica whose manifest verifies, falling back across
// sinks on checksum mismatch.
//
// Shipping is asynchronous by default (each lane's background loop
// drains its dirty set on an interval, retrying failures with capped
// backoff); with Options.Sync each hook ships inline to every sink
// before returning, so an acknowledged job submission is already at the
// sinks when the HTTP 202 goes out — the synchronous-replication mode
// the failover harness runs, where a kill -9 must lose zero accepted
// jobs. A sync-mode sink failure degrades that sink to async retry
// rather than failing the write path.
package shipper

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Named failure modes surfaced by sinks and Restore.
var (
	// ErrChecksumMismatch marks shipped content that does not hash to its
	// manifest (or seal-time) checksum. The offending file is quarantined
	// (renamed with a .quarantine suffix), never silently used.
	ErrChecksumMismatch = errors.New("shipper: checksum mismatch")
	// ErrOffsetMismatch marks an append at the wrong resume offset — the
	// shipper re-queries the sink offset and reships.
	ErrOffsetMismatch = errors.New("shipper: offset mismatch")
)

// ValidNode is the one rule for a node name. A name becomes a directory —
// under a sink root, a receiver root or a standby's data directory — and
// the prefix of the coordinator's job IDs, so it must be one path element
// other than "." and "..", with no slash, backslash, colon or space.
func ValidNode(name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\: `) {
		return fmt.Errorf("bad node name %q (one path element, not . or .., without slashes, colons or spaces)", name)
	}
	return nil
}

// Sink is one destination for shipped files. Implementations: DirSink
// (local directory, also the storage behind the peer-push Receiver) and
// HTTPSink (push to a peer node's /ship/ receiver).
type Sink interface {
	// Offset reports how many bytes of name the sink already holds — the
	// resume point after a shipper or sink crash.
	Offset(name string) (int64, error)
	// Append writes data at offset off. off zero (re)starts the file from
	// scratch; any other off must equal the sink's current offset, else
	// ErrOffsetMismatch.
	Append(name string, off int64, data []byte) error
	// Seal finalizes name at the given size and SHA-256 hex digest,
	// verifying the held bytes and recording the file in the manifest. A
	// digest mismatch quarantines the held bytes and returns
	// ErrChecksumMismatch; an incomplete file returns ErrOffsetMismatch.
	Seal(name string, size int64, sum string) error
}

// Options tunes a Shipper.
type Options struct {
	// Interval paces each lane's background ship loop. 0 selects 250ms.
	Interval time.Duration
	// MaxBackoff caps a lane's retry backoff after consecutive ship
	// failures. 0 selects 5s.
	MaxBackoff time.Duration
	// Sync ships inline from each Changed/Sealed hook before it returns
	// (synchronous replication) to every sink; a sink that fails falls
	// back to its lane's background retry loop, so durability degrades to
	// async on that sink rather than failing the write path.
	Sync bool
	// OnError receives the first error of each failed background pass
	// (best-effort; the dirty files stay queued in their lane and are
	// retried).
	OnError func(error)
}

// Stats is a shipping counter snapshot, feeding the node's /metrics.
// For a multi-sink shipper it sums every lane.
type Stats struct {
	// SegmentsShipped counts successfully sealed files (journal segments,
	// bases and trace segments). With N sinks one local seal counts N
	// times — it is a count of sink-seal operations, not of local files.
	SegmentsShipped int64
	// Retries counts ship attempts that failed and were requeued.
	Retries int64
	// Bytes counts payload bytes appended to sinks.
	Bytes int64
}

// fileState tracks one file's shipping progress on one lane.
type fileState struct {
	mu     sync.Mutex
	offset int64    // bytes known to be at the sink; -1 = unknown, query
	sealed bool     // a seal is owed once the bytes are shipped
	done   bool     // sealed at the sink; nothing more to do unless it changes
	f      *os.File // a growing file's handle, kept open until it is sealed
}

// drop closes the kept handle, if any. Called with st.mu held.
func (st *fileState) drop() {
	if st.f != nil {
		st.f.Close()
		st.f = nil
	}
}

// lane is one sink's independent replication state: its own per-file
// offsets, dirty set and retry loop. Lanes never share failure state —
// sink A being down is invisible to sink B.
type lane struct {
	root string
	sink Sink
	opts Options

	segmentsShipped atomic.Int64
	retries         atomic.Int64
	bytes           atomic.Int64

	mu     sync.Mutex
	files  map[string]*fileState
	dirty  map[string]struct{}
	closed bool

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// Shipper watches a data directory and pushes its files to every sink,
// one independent lane per sink.
type Shipper struct {
	root  string
	opts  Options
	lanes []*lane
}

// NewMulti returns a shipper replicating root into every sink — N-way
// replication with one independent lane (offsets, dirty set, retry
// backoff) per sink — and starts the lanes' background loops. Close it
// to flush and stop.
func NewMulti(root string, sinks []Sink, opts Options) *Shipper {
	if opts.Interval <= 0 {
		opts.Interval = 250 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 5 * time.Second
	}
	s := &Shipper{root: root, opts: opts}
	for _, sink := range sinks {
		ln := newLane(root, sink, opts)
		ln.wg.Add(1)
		go ln.loop()
		s.lanes = append(s.lanes, ln)
	}
	return s
}

// newLane returns a lane whose background loop is not started yet.
func newLane(root string, sink Sink, opts Options) *lane {
	return &lane{
		root:  root,
		sink:  sink,
		opts:  opts,
		files: map[string]*fileState{},
		dirty: map[string]struct{}{},
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
}

// Stats snapshots the ship counters summed across every lane.
func (s *Shipper) Stats() Stats {
	var out Stats
	for _, ln := range s.lanes {
		out.SegmentsShipped += ln.segmentsShipped.Load()
		out.Retries += ln.retries.Load()
		out.Bytes += ln.bytes.Load()
	}
	return out
}

// Changed notes that rel (relative to the data dir, slash-separated)
// grew. With Options.Sync the delta ships to every sink
// before Changed returns; a failing sink degrades to its lane's
// background retry.
func (s *Shipper) Changed(rel string) {
	for _, ln := range s.lanes {
		ln.changed(rel)
	}
}

// Sealed notes that rel reached its final content (a rotated journal or
// trace segment, or one an earlier life left, which a log announces when
// it opens): the remaining tail ships and the file is sealed into each
// sink's checksummed manifest.
func (s *Shipper) Sealed(rel string) {
	for _, ln := range s.lanes {
		ln.sealed(rel)
	}
}

// Flush ships everything queued right now on every lane, returning the
// first error. Used by tests and Close; the background loops keep
// retrying failures.
func (s *Shipper) Flush() error {
	var first error
	for _, ln := range s.lanes {
		if err := ln.flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops every lane's background loop after a final best-effort
// flush, then closes every file handle the lanes keep and every sink that
// is an io.Closer (a DirSink's kept parts; the sink stays usable).
// Idempotent.
func (s *Shipper) Close() error {
	var first error
	for _, ln := range s.lanes {
		if err := ln.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// state returns (creating if needed) the lane's tracking state for rel.
func (ln *lane) state(rel string) *fileState {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	st, ok := ln.files[rel]
	if !ok {
		st = &fileState{offset: -1}
		ln.files[rel] = st
	}
	return st
}

// markDirty queues the file for the lane's background loop.
func (ln *lane) markDirty(rel string) {
	ln.mu.Lock()
	if !ln.closed {
		ln.dirty[rel] = struct{}{}
	}
	ln.mu.Unlock()
	select {
	case ln.kick <- struct{}{}:
	default:
	}
}

// changed implements Shipper.Changed for one lane.
func (ln *lane) changed(rel string) {
	st := ln.state(rel)
	st.mu.Lock()
	st.done = false
	st.mu.Unlock()
	if ln.opts.Sync {
		if err := ln.shipFile(rel); err == nil {
			return
		}
	}
	ln.markDirty(rel)
}

// sealed implements Shipper.Sealed for one lane.
func (ln *lane) sealed(rel string) {
	st := ln.state(rel)
	st.mu.Lock()
	st.sealed = true
	st.done = false
	// From here the file ships by path: one gone before its turn is then
	// done without a seal.
	st.drop()
	st.mu.Unlock()
	if ln.opts.Sync {
		if err := ln.shipFile(rel); err == nil {
			return
		}
	}
	ln.markDirty(rel)
}

// shipFile pushes one file's outstanding bytes (and owed seal) to the
// lane's sink. Per-file serialization via the file state lock; safe to
// call concurrently with hooks for the same file.
func (ln *lane) shipFile(rel string) error {
	st := ln.state(rel)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.done {
		return nil
	}
	f := st.f
	if f == nil {
		var err error
		f, err = os.Open(filepath.Join(ln.root, filepath.FromSlash(rel)))
		if errors.Is(err, os.ErrNotExist) {
			// Gone (the logs delete nothing, but someone may have) —
			// nothing left to ship.
			st.done = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("shipper: %s: %w", rel, err)
		}
		if st.sealed || ln.isClosed() {
			defer f.Close()
		} else {
			// Still growing: the next change ships through the same handle.
			st.f = f
		}
	}
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("shipper: %s: %w", rel, err)
	}
	size := info.Size()
	if st.offset < 0 {
		off, err := ln.sink.Offset(rel)
		if err != nil {
			return fmt.Errorf("shipper: %s: offset: %w", rel, err)
		}
		st.offset = off
	}
	if size < st.offset {
		// The sink is ahead of a file this node restored from a replica
		// that lagged: restart it.
		st.offset = 0
	}
	if size == 0 && st.sealed && st.offset == 0 {
		// An empty sealed file (a base an older binary folded from zero
		// jobs) never gets an append, but it still has to exist at the sink
		// to seal.
		if err := ln.sink.Append(rel, 0, nil); err != nil {
			return fmt.Errorf("shipper: %s: %w", rel, err)
		}
	}
	if size > st.offset {
		if err := ln.shipRange(f, rel, st, size); err != nil {
			if !errors.Is(err, ErrOffsetMismatch) {
				return err
			}
			// The sink's idea of the offset moved (sink restarted, another
			// writer generation): re-query once and reship.
			off, oerr := ln.sink.Offset(rel)
			if oerr != nil {
				return fmt.Errorf("shipper: %s: offset: %w", rel, oerr)
			}
			st.offset = off
			if off > size {
				st.offset = 0
			}
			if err := ln.shipRange(f, rel, st, size); err != nil {
				return err
			}
		}
	}
	if st.sealed {
		sum, n, err := hashFile(f)
		if err != nil {
			return fmt.Errorf("shipper: %s: %w", rel, err)
		}
		if n != size {
			// Grew between stat and hash (should not happen for sealed
			// files); ship the rest next round.
			return fmt.Errorf("shipper: %s: grew while sealing", rel)
		}
		if err := ln.sink.Seal(rel, size, sum); err != nil {
			// Whatever the sink holds is not what we think it holds (short
			// part, quarantined content): forget the cached offset so the
			// retry re-queries and reships from the sink's truth.
			st.offset = -1
			return fmt.Errorf("shipper: sealing %s: %w", rel, err)
		}
		ln.segmentsShipped.Add(1)
		st.done = true
	}
	return nil
}

// shipRange appends f's bytes in [st.offset, size) to the sink. An
// offset-zero append truncates at the sink, so a restarted file ships its
// whole current content in one shot.
func (ln *lane) shipRange(f *os.File, rel string, st *fileState, size int64) error {
	off := st.offset
	data := make([]byte, size-off)
	if _, err := f.ReadAt(data, off); err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("shipper: reading %s: %w", rel, err)
	}
	if err := ln.sink.Append(rel, off, data); err != nil {
		return err
	}
	st.offset = size
	ln.bytes.Add(int64(len(data)))
	return nil
}

// hashFile returns the SHA-256 hex digest and length of f's full content.
func hashFile(f *os.File) (string, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return "", 0, err
	}
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// loop flushes the lane's dirty set on the interval, with capped backoff
// while its sink is failing.
func (ln *lane) loop() {
	defer ln.wg.Done()
	backoff := ln.opts.Interval
	timer := time.NewTimer(ln.opts.Interval)
	defer timer.Stop()
	for {
		select {
		case <-ln.stop:
			return
		case <-ln.kick:
		case <-timer.C:
		}
		if err := ln.flush(); err == nil {
			backoff = ln.opts.Interval
		} else {
			if ln.opts.OnError != nil {
				ln.opts.OnError(err)
			}
			ln.retries.Add(1)
			backoff *= 2
			if backoff > ln.opts.MaxBackoff {
				backoff = ln.opts.MaxBackoff
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(backoff)
	}
}

// flush ships every queued file once, returning the first error. Failed
// files stay queued for the next pass.
func (ln *lane) flush() error {
	ln.mu.Lock()
	rels := make([]string, 0, len(ln.dirty))
	for rel := range ln.dirty {
		rels = append(rels, rel)
	}
	ln.mu.Unlock()
	sort.Strings(rels) // deterministic order: journal before traces
	var first error
	for _, rel := range rels {
		if err := ln.shipFile(rel); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		ln.mu.Lock()
		delete(ln.dirty, rel)
		ln.mu.Unlock()
	}
	return first
}

// isClosed reports whether close has begun; a file shipped from then on
// keeps no handle.
func (ln *lane) isClosed() bool {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	return ln.closed
}

// close stops the lane's loop after a final best-effort flush, then closes
// the handles it kept and its sink, if that is an io.Closer. Idempotent.
func (ln *lane) close() error {
	ln.mu.Lock()
	if ln.closed {
		ln.mu.Unlock()
		return nil
	}
	ln.closed = true
	ln.mu.Unlock()
	err := ln.flush()
	close(ln.stop)
	ln.wg.Wait()
	ln.mu.Lock()
	files := make([]*fileState, 0, len(ln.files))
	for _, st := range ln.files {
		files = append(files, st)
	}
	ln.mu.Unlock()
	for _, st := range files {
		st.mu.Lock()
		st.drop()
		st.mu.Unlock()
	}
	if c, ok := ln.sink.(io.Closer); ok {
		err = errors.Join(err, c.Close())
	}
	return err
}
