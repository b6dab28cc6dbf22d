package events

import (
	"sync"
	"sync/atomic"
)

// SubscriberBuffer is each subscription's channel capacity. A subscriber
// whose buffer is full has events dropped from its channel (counted,
// never removed from history) and recovers via Since: the size only
// decides how often a slow reader backfills.
const SubscriberBuffer = 256

// Options tunes a Hub.
type Options struct {
	// Sink, when non-nil, receives every published event synchronously
	// in publish order, before any subscriber sees it. It is the durable
	// trace store's hook; it must not call back into the hub.
	Sink func(Event)
}

// Stats is the hub's counter snapshot, feeding the service /metrics.
type Stats struct {
	// Subscribers is the number of currently open subscriptions.
	Subscribers int64
	// Published counts events published since the hub was created
	// (primed history is not counted — it was published in a previous
	// process life).
	Published int64
	// Dropped counts events dropped from slow consumers' buffers.
	Dropped int64
}

// Hub is a per-job broadcast switchboard: Publish assigns the next
// sequence number for the job, retains the event, hands it to the sink,
// and fans it out to the job's subscribers. Safe for concurrent use.
type Hub struct {
	opts Options

	subscribers atomic.Int64
	published   atomic.Int64
	dropped     atomic.Int64

	mu    sync.Mutex
	feeds map[string]*feed
}

// feed is one job's event log plus its live subscribers.
type feed struct {
	mu      sync.Mutex
	history []Event
	// load, while non-nil, is an earlier process life's history not yet
	// decoded (Prime); the first reader runs it, once, under mu.
	load    func() []Event
	nextSeq uint64
	done    bool
	subs    map[*Subscription]struct{}
}

// Subscription is one consumer's handle on a job feed. Events arrive on
// C in sequence order; the channel closes after the job's terminal event
// has been delivered (or when Close is called). If the subscriber lags
// more than the buffer, intervening events are dropped from C — detect
// the sequence gap and backfill with Hub.Since.
type Subscription struct {
	// C delivers the feed's events.
	C <-chan Event

	hub    *Hub
	feed   *feed
	ch     chan Event
	closed bool // guarded by feed.mu
}

// NewHub returns an empty hub.
func NewHub(opts Options) *Hub {
	return &Hub{opts: opts, feeds: map[string]*feed{}}
}

// getFeed returns (creating if needed) the job's feed.
func (h *Hub) getFeed(jobID string) *feed {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, ok := h.feeds[jobID]
	if !ok {
		f = &feed{nextSeq: 1, subs: map[*Subscription]struct{}{}}
		h.feeds[jobID] = f
	}
	return f
}

// Publish stamps the event with the job's next sequence number and the
// job ID, retains it, hands it to the sink, and fans it out. A terminal
// event closes the feed: subscribers' channels are closed after it is
// delivered, and later publishes for the job are no-ops (a feed never
// reopens). Returns the stamped event; a dropped (post-terminal) publish
// returns Seq 0.
func (h *Hub) Publish(jobID string, ev Event) Event {
	f := h.getFeed(jobID)
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		ev.Seq = 0
		return ev
	}
	ev.JobID = jobID
	ev.Seq = f.nextSeq
	f.nextSeq++
	f.history = append(f.history, ev)
	h.published.Add(1) // before any subscriber can see the event
	if h.opts.Sink != nil {
		h.opts.Sink(ev)
	}
	for sub := range f.subs {
		select {
		case sub.ch <- ev:
		default:
			// Slow consumer: the event stays in history, the subscriber
			// sees a sequence gap and backfills via Since.
			h.dropped.Add(1)
		}
	}
	if ev.Terminal {
		f.done = true
		for sub := range f.subs {
			h.closeSubLocked(f, sub)
		}
	}
	f.mu.Unlock()
	return ev
}

// Prime re-arms a job's feed after a restart from what the durable trace
// store holds of it: lastSeq is the sequence number of its newest event,
// so numbering continues where the previous process stopped, done says
// that event was terminal, and load decodes the history. A feed that will
// publish again (not done) is loaded at once; a done feed the first time
// Since or Subscribe reads it — LastSeq, Done and a post-terminal Publish
// never load. load runs at most once, with the feed's lock held, and must
// not call back into the hub; what it returns is retained like any other
// history. Prime only applies to an untouched feed. Primed events do not
// count as published and do not reach the sink (they are already durable).
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
	if f.load != nil {
		f.history, f.load = f.load(), nil
	}
}

// Subscribe registers a consumer on the job's feed and returns the
// backlog of events with Seq > afterSeq. Registration and the backlog
// snapshot are atomic, so the backlog plus the channel delivers every
// event exactly once in order. Subscribing to a finished job returns the
// remaining history and an already-closed channel.
func (h *Hub) Subscribe(jobID string, afterSeq uint64) (*Subscription, []Event) {
	f := h.getFeed(jobID)
	sub := &Subscription{hub: h, feed: f, ch: make(chan Event, SubscriberBuffer)}
	sub.C = sub.ch
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loadLocked()
	backlog := eventsAfter(f.history, afterSeq)
	if f.done {
		sub.closed = true
		close(sub.ch)
		return sub, backlog
	}
	f.subs[sub] = struct{}{}
	h.subscribers.Add(1)
	return sub, backlog
}

// closeSubLocked closes one subscription under its feed's lock.
func (h *Hub) closeSubLocked(f *feed, sub *Subscription) {
	if sub.closed {
		return
	}
	sub.closed = true
	delete(f.subs, sub)
	close(sub.ch)
	h.subscribers.Add(-1)
}

// Close detaches the subscription. Idempotent, and safe to call after
// the feed already closed the channel.
func (s *Subscription) Close() {
	s.feed.mu.Lock()
	s.hub.closeSubLocked(s.feed, s)
	s.feed.mu.Unlock()
}

// Since returns a copy of the job's retained events with Seq > afterSeq
// — the backfill path for consumers that detected a gap, and the data
// behind the ?since=N incremental poll and the /trace endpoint.
func (h *Hub) Since(jobID string, afterSeq uint64) []Event {
	h.mu.Lock()
	f, ok := h.feeds[jobID]
	h.mu.Unlock()
	if !ok {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loadLocked()
	return eventsAfter(f.history, afterSeq)
}

// LastSeq returns the job's highest published sequence number (0 when
// the job has no events).
func (h *Hub) LastSeq(jobID string) uint64 {
	h.mu.Lock()
	f, ok := h.feeds[jobID]
	h.mu.Unlock()
	if !ok {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nextSeq - 1
}

// Done reports whether the job's feed saw its terminal event.
func (h *Hub) Done(jobID string) bool {
	h.mu.Lock()
	f, ok := h.feeds[jobID]
	h.mu.Unlock()
	if !ok {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// Stats snapshots the hub counters.
func (h *Hub) Stats() Stats {
	return Stats{
		Subscribers: h.subscribers.Load(),
		Published:   h.published.Load(),
		Dropped:     h.dropped.Load(),
	}
}

// eventsAfter copies the tail of history with Seq > afterSeq. History is
// seq-ordered, so a binary search finds the cut.
func eventsAfter(history []Event, afterSeq uint64) []Event {
	lo, hi := 0, len(history)
	for lo < hi {
		mid := (lo + hi) / 2
		if history[mid].Seq <= afterSeq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(history) {
		return nil
	}
	out := make([]Event, len(history)-lo)
	copy(out, history[lo:])
	return out
}
