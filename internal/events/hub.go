package events

import (
	"encoding/json"
	"sync"
	"sync/atomic"
)

// Options tunes a Hub.
type Options struct {
	// Sink, when non-nil, receives every published event synchronously
	// in publish order, before any subscriber sees it, with the line
	// Publish encoded it to. It is the durable trace store's hook; it must
	// not call back into the hub, nor change the line.
	Sink func(Entry)
}

// Entry is one retained event and its wire form.
type Entry struct {
	Event
	// Line is json.Marshal of the event and a newline, encoded once by
	// Publish: the durable log writes it and every event stream sends it.
	// Nil for an event that does not encode (a non-finite score) and for
	// one primed from an earlier process life, which a reader encodes
	// itself.
	Line []byte
}

// Stats is the hub's counter snapshot, feeding the service /metrics.
type Stats struct {
	// Subscribers is the number of currently open subscriptions.
	Subscribers int64
	// Published counts events published since the hub was created
	// (primed history is not counted — it was published in a previous
	// process life).
	Published int64
}

// Hub is a per-job event log with readers: Publish assigns the next
// sequence number for the job, retains the event, hands it to the sink,
// and wakes the job's subscribers. Safe for concurrent use.
type Hub struct {
	opts Options

	subscribers atomic.Int64
	published   atomic.Int64

	mu    sync.Mutex
	feeds map[string]*feed
}

// feed is one job's event log.
type feed struct {
	mu sync.Mutex
	// history only grows by appending, and no entry is rewritten, so a
	// tail handed out keeps its contents while publishes append past it.
	history []Entry
	// load, while non-nil, is an earlier process life's history not yet
	// decoded (Prime); the first reader runs it, once, under mu.
	load    func() []Event
	nextSeq uint64
	done    bool
	// wake, while non-nil, is the channel the next Publish closes; a
	// reader asks for it (Next), so a feed nobody waits on allocates none.
	wake chan struct{}
}

// Subscription is one consumer's position in a job's feed: the sequence
// number of the last event it was handed. It holds no copy of any event,
// so a reader of any pace gets every event exactly once, in order. Use it
// from one goroutine.
type Subscription struct {
	feed   *feed
	hub    *Hub
	seq    uint64
	closed atomic.Bool
}

// NewHub returns an empty hub.
func NewHub(opts Options) *Hub {
	return &Hub{opts: opts, feeds: map[string]*feed{}}
}

// getFeed returns (creating if needed) the job's feed. A reader creates
// one too: an empty feed reads as no events, not done, and Prime still
// applies to it.
func (h *Hub) getFeed(jobID string) *feed {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, ok := h.feeds[jobID]
	if !ok {
		f = &feed{nextSeq: 1}
		h.feeds[jobID] = f
	}
	return f
}

// Publish stamps the event with the job's next sequence number and the
// job ID, encodes it — the one encoding the event gets, which the sink and
// every subscriber are handed as Entry.Line — retains it, hands it to the
// sink, and wakes the job's waiting subscribers. An event that does not
// encode is retained and published all the same, with a nil line. A
// terminal event closes the feed: later publishes for the job are no-ops
// (a feed never reopens). Returns the stamped event; a dropped
// (post-terminal) publish returns Seq 0.
func (h *Hub) Publish(jobID string, ev Event) Event {
	f := h.getFeed(jobID)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		ev.Seq = 0
		return ev
	}
	ev.JobID = jobID
	ev.Seq = f.nextSeq
	f.nextSeq++
	f.history = append(f.history, Entry{Event: ev})
	// Encoded where it is kept, so the event is not boxed a second time;
	// no reader can see the entry before the lock is released.
	e := &f.history[len(f.history)-1]
	if line, err := json.Marshal(&e.Event); err == nil {
		e.Line = append(line, '\n') // Marshal's buffer is rounded up: rarely a copy
	}
	f.done = ev.Terminal
	h.published.Add(1) // before any subscriber can see the event
	if h.opts.Sink != nil {
		h.opts.Sink(*e)
	}
	if f.wake != nil {
		close(f.wake)
		f.wake = nil
	}
	return ev
}

// Prime re-arms a job's feed after a restart from what the durable trace
// store holds of it: lastSeq is the sequence number of its newest event,
// so numbering continues where the previous process stopped, done says
// that event was terminal, and load decodes the history. A feed that will
// publish again (not done) is loaded at once; a done feed the first time
// Since or a subscription's Next reads it — LastSeq, Done and a
// post-terminal Publish never load. load runs at most once, with the
// feed's lock held, and must not call back into the hub; what it returns
// is retained like any other history. Prime only applies to an untouched
// feed. Primed events do not count as published and do not reach the sink
// (they are already durable).
func (h *Hub) Prime(jobID string, lastSeq uint64, done bool, load func() []Event) {
	if lastSeq == 0 {
		return
	}
	f := h.getFeed(jobID)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.nextSeq > 1 || f.done {
		return
	}
	f.nextSeq, f.done, f.load = lastSeq+1, done, load
	if !done {
		f.loadLocked()
	}
}

// loadLocked decodes a primed history the first time it is needed.
func (f *feed) loadLocked() {
	if f.load == nil {
		return
	}
	evs := f.load()
	f.history, f.load = make([]Entry, len(evs)), nil
	for i, ev := range evs {
		f.history[i].Event = ev
	}
}

// Subscribe opens a subscription on the job's feed positioned after
// sequence number afterSeq: its first Next returns the events past it.
func (h *Hub) Subscribe(jobID string, afterSeq uint64) *Subscription {
	h.subscribers.Add(1)
	return &Subscription{feed: h.getFeed(jobID), hub: h, seq: afterSeq}
}

// Next returns every retained event past the subscription's position and
// moves the position past them, with the channel the feed's next Publish
// closes — or nil once the feed has closed and every event has been
// returned; the subscription is then complete and no longer counted. The
// events are the feed's own history, not a copy, capped so that an append
// cannot reach them: the caller must not change them.
func (s *Subscription) Next() ([]Entry, <-chan struct{}) {
	f := s.feed
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loadLocked()
	var evs []Entry
	if i, n := cut(f.history, s.seq), len(f.history); i < n {
		evs = f.history[i:n:n]
		s.seq = evs[len(evs)-1].Seq
	}
	if f.done {
		s.Close()
		return evs, nil
	}
	if f.wake == nil {
		f.wake = make(chan struct{})
	}
	return evs, f.wake
}

// Close detaches the subscription. Idempotent, and safe to call after
// Next reported it complete.
func (s *Subscription) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.hub.subscribers.Add(-1)
	}
}

// Since returns a copy of the job's retained events with Seq > afterSeq
// — the data behind the ?since=N incremental poll, every snapshot's curve
// and the /trace endpoint.
func (h *Hub) Since(jobID string, afterSeq uint64) []Event {
	f := h.getFeed(jobID)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loadLocked()
	tail := f.history[cut(f.history, afterSeq):]
	if len(tail) == 0 {
		return nil
	}
	out := make([]Event, len(tail))
	for i := range tail {
		out[i] = tail[i].Event
	}
	return out
}

// LastSeq returns the job's highest published sequence number (0 when
// the job has no events).
func (h *Hub) LastSeq(jobID string) uint64 {
	f := h.getFeed(jobID)
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nextSeq - 1
}

// Done reports whether the job's feed saw its terminal event.
func (h *Hub) Done(jobID string) bool {
	f := h.getFeed(jobID)
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// Stats snapshots the hub counters.
func (h *Hub) Stats() Stats {
	return Stats{
		Subscribers: h.subscribers.Load(),
		Published:   h.published.Load(),
	}
}

// cut returns the index of history's first event with Seq > afterSeq.
// History is seq-ordered, so a binary search finds it.
func cut(history []Entry, afterSeq uint64) int {
	lo, hi := 0, len(history)
	for lo < hi {
		mid := (lo + hi) / 2
		if history[mid].Seq <= afterSeq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
