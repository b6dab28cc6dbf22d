package events

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/trace"
)

// collect drains backlog + channel until the channel closes or n events
// arrived, returning them in arrival order.
func collect(sub *Subscription, backlog []Event, n int, timeout time.Duration) []Event {
	out := append([]Event{}, backlog...)
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-deadline:
			return out
		}
	}
	return out
}

func curveEvent(i int) Event {
	return Event{Type: TypeCurvePoint, Time: time.Unix(int64(i), 0), Point: &trace.Point{Evaluations: i, BestScore: float64(i)}}
}

// TestPublishAssignsMonotonicSeqs: sequence numbers are per-job,
// monotonic from 1, and independent across jobs.
func TestPublishAssignsMonotonicSeqs(t *testing.T) {
	h := NewHub(Options{})
	for i := 1; i <= 3; i++ {
		ev := h.Publish("job-1", curveEvent(i))
		if ev.Seq != uint64(i) {
			t.Fatalf("job-1 event %d got seq %d", i, ev.Seq)
		}
		if ev.JobID != "job-1" {
			t.Fatalf("publish did not stamp job ID: %q", ev.JobID)
		}
	}
	if ev := h.Publish("job-2", curveEvent(1)); ev.Seq != 1 {
		t.Fatalf("job-2 first event got seq %d, want 1", ev.Seq)
	}
	if got := h.LastSeq("job-1"); got != 3 {
		t.Fatalf("LastSeq(job-1) = %d, want 3", got)
	}
	if got := h.LastSeq("absent"); got != 0 {
		t.Fatalf("LastSeq(absent) = %d, want 0", got)
	}
	if got := h.Stats().Published; got != 4 {
		t.Fatalf("Published = %d, want 4", got)
	}
}

// TestSubscribeBacklogAndLive: a subscriber joining mid-stream gets the
// backlog past its resume point atomically, then live events, with no
// gap and no duplicate at the hand-off.
func TestSubscribeBacklogAndLive(t *testing.T) {
	h := NewHub(Options{})
	for i := 1; i <= 5; i++ {
		h.Publish("j", curveEvent(i))
	}
	sub, backlog := h.Subscribe("j", 2)
	defer sub.Close()
	if len(backlog) != 3 || backlog[0].Seq != 3 || backlog[2].Seq != 5 {
		t.Fatalf("backlog after seq 2 = %+v, want seqs 3..5", backlog)
	}
	h.Publish("j", curveEvent(6))
	h.Publish("j", Event{Type: TypeStatus, Status: "done", Terminal: true})
	got := collect(sub, backlog, 5, 5*time.Second)
	for i, ev := range got {
		if ev.Seq != uint64(i+3) {
			t.Fatalf("event %d has seq %d, want %d (events: %+v)", i, ev.Seq, i+3, got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("got %d events, want 5 (3 backlog + 2 live)", len(got))
	}
	// Terminal closed the channel.
	if _, ok := <-sub.C; ok {
		t.Fatal("channel still open after terminal event")
	}
}

// TestTerminalClosesFeed: the terminal event reaches subscribers, the
// feed refuses later publishes, and a late subscriber gets the full
// history with an already-closed channel.
func TestTerminalClosesFeed(t *testing.T) {
	h := NewHub(Options{})
	sub, _ := h.Subscribe("j", 0)
	h.Publish("j", curveEvent(1))
	h.Publish("j", Event{Type: TypeStatus, Status: "done", Terminal: true})
	got := collect(sub, nil, 2, 5*time.Second)
	if len(got) != 2 || !got[1].Terminal {
		t.Fatalf("subscriber saw %+v, want curve point then terminal", got)
	}
	if ev := h.Publish("j", curveEvent(9)); ev.Seq != 0 {
		t.Fatalf("post-terminal publish got seq %d, want 0 (dropped)", ev.Seq)
	}
	if !h.Done("j") {
		t.Fatal("Done(j) = false after terminal event")
	}
	late, backlog := h.Subscribe("j", 0)
	if len(backlog) != 2 {
		t.Fatalf("late subscriber backlog = %d events, want 2", len(backlog))
	}
	if _, ok := <-late.C; ok {
		t.Fatal("late subscriber channel open on a finished feed")
	}
	if got := h.Stats().Subscribers; got != 0 {
		t.Fatalf("Subscribers = %d after feed closed, want 0", got)
	}
}

// TestSlowConsumerDropAccounting: a subscriber that never drains a
// 1-slot buffer loses events from its channel — counted on the
// subscription and the hub — while the history keeps everything, so
// Since can backfill the gap.
func TestSlowConsumerDropAccounting(t *testing.T) {
	h := NewHub(Options{SubscriberBuffer: 1})
	sub, _ := h.Subscribe("j", 0)
	defer sub.Close()
	const n = 10
	for i := 1; i <= n; i++ {
		h.Publish("j", curveEvent(i))
	}
	if got := sub.Dropped(); got != n-1 {
		t.Fatalf("subscription dropped %d, want %d", got, n-1)
	}
	if got := h.Stats().Dropped; got != n-1 {
		t.Fatalf("hub dropped %d, want %d", got, n-1)
	}
	// The one delivered event is the first; the gap backfills from history.
	ev := <-sub.C
	if ev.Seq != 1 {
		t.Fatalf("delivered event has seq %d, want 1", ev.Seq)
	}
	rest := h.Since("j", ev.Seq)
	if len(rest) != n-1 || rest[0].Seq != 2 || rest[len(rest)-1].Seq != n {
		t.Fatalf("Since(1) = %d events [%d..%d], want seqs 2..%d",
			len(rest), rest[0].Seq, rest[len(rest)-1].Seq, n)
	}
}

// TestPrimeContinuesSequence: a primed feed (restart recovery) continues
// numbering after the restored history, does not recount published
// events, and marks itself done when the restored tail was terminal.
func TestPrimeContinuesSequence(t *testing.T) {
	h := NewHub(Options{})
	hist := []Event{
		{Seq: 1, Type: TypeCurvePoint, JobID: "j"},
		{Seq: 2, Type: TypeCurvePoint, JobID: "j"},
	}
	load := func() []Event { return hist }
	h.Prime("j", 2, false, load)
	if got := h.Stats().Published; got != 0 {
		t.Fatalf("Published = %d after Prime, want 0", got)
	}
	if ev := h.Publish("j", curveEvent(3)); ev.Seq != 3 {
		t.Fatalf("publish after prime got seq %d, want 3", ev.Seq)
	}
	// Prime on a feed with events is a no-op.
	h.Prime("j", 2, false, load)
	if got := h.LastSeq("j"); got != 3 {
		t.Fatalf("LastSeq = %d after redundant Prime, want 3", got)
	}

	h.Prime("done-job", 7, true, func() []Event {
		return []Event{{Seq: 7, Type: TypeStatus, Status: "done", Terminal: true}}
	})
	if !h.Done("done-job") {
		t.Fatal("feed primed with a terminal tail is not done")
	}
	if ev := h.Publish("done-job", curveEvent(1)); ev.Seq != 0 {
		t.Fatal("publish accepted on a feed primed terminal")
	}
}

// TestPrimeLoadsDoneFeedOnFirstRead: a finished job's history of an
// earlier life stays undecoded until Since or Subscribe reads it. LastSeq,
// Done and a post-terminal Publish never run the loader; readers racing
// from many goroutines run it exactly once and all see the same events.
func TestPrimeLoadsDoneFeedOnFirstRead(t *testing.T) {
	h := NewHub(Options{})
	hist := make([]Event, 9)
	for i := range hist {
		hist[i] = curveEvent(i + 1)
		hist[i].Seq, hist[i].JobID = uint64(i+1), "j"
	}
	hist[8] = Event{Seq: 9, Type: TypeStatus, JobID: "j", Status: "done", Terminal: true}
	var loads atomic.Int64
	h.Prime("j", 9, true, func() []Event {
		loads.Add(1)
		return hist
	})
	if got := h.LastSeq("j"); got != 9 {
		t.Fatalf("LastSeq = %d, want 9", got)
	}
	if !h.Done("j") {
		t.Fatal("feed primed done is not done")
	}
	if ev := h.Publish("j", curveEvent(10)); ev.Seq != 0 {
		t.Fatalf("post-terminal publish got seq %d, want 0", ev.Seq)
	}
	if n := loads.Load(); n != 0 {
		t.Fatalf("loader ran %d times before any read, want 0", n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if all := h.Since("j", 0); len(all) != 9 || all[0].Seq != 1 || !all[8].Terminal {
				t.Errorf("goroutine %d: Since(0) = %d events", g, len(all))
			}
			if tail := h.Since("j", 4); len(tail) != 5 || tail[0].Seq != 5 {
				t.Errorf("goroutine %d: Since(4) = %d events", g, len(tail))
			}
			sub, backlog := h.Subscribe("j", 6)
			defer sub.Close()
			if len(backlog) != 3 || backlog[0].Seq != 7 {
				t.Errorf("goroutine %d: Subscribe(6) backlog = %d events", g, len(backlog))
			}
			if _, open := <-sub.C; open {
				t.Errorf("goroutine %d: a finished feed's channel is open", g)
			}
		}(g)
	}
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want exactly 1", n)
	}
	if got := h.Stats(); got.Published != 0 || got.Subscribers != 0 {
		t.Fatalf("stats after reads = %+v, want nothing published, nobody subscribed", got)
	}
}

// TestPrimeNotDoneFeedContinues: a feed that will publish again is loaded
// at Prime, numbers on from last+1, and a subscriber gets the earlier
// life's backlog plus the live events exactly once, in order.
func TestPrimeNotDoneFeedContinues(t *testing.T) {
	var sunk []uint64
	h := NewHub(Options{Sink: func(ev Event) { sunk = append(sunk, ev.Seq) }})
	loads := 0
	h.Prime("j", 3, false, func() []Event {
		loads++
		return []Event{{Seq: 1, JobID: "j"}, {Seq: 2, JobID: "j"}, {Seq: 3, JobID: "j"}}
	})
	if loads != 1 {
		t.Fatalf("loader ran %d times at Prime of a live feed, want 1", loads)
	}
	sub, backlog := h.Subscribe("j", 1)
	defer sub.Close()
	if ev := h.Publish("j", curveEvent(4)); ev.Seq != 4 {
		t.Fatalf("first publish after Prime got seq %d, want 4", ev.Seq)
	}
	h.Publish("j", Event{Type: TypeStatus, Status: "done", Terminal: true})
	got := collect(sub, backlog, 4, 2*time.Second)
	if len(got) != 4 {
		t.Fatalf("backlog + live = %d events, want 4", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+2) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+2)
		}
	}
	if all := h.Since("j", 0); len(all) != 5 || loads != 1 {
		t.Fatalf("Since(0) = %d events after %d loads, want 5 after 1", len(all), loads)
	}
	if len(sunk) != 2 || sunk[0] != 4 || sunk[1] != 5 {
		t.Fatalf("sink saw %v, want only this life's 4 and 5", sunk)
	}
}

// TestConcurrentPublishSubscribe hammers one feed from many publishers
// and subscribers under -race: every subscriber must see a strictly
// increasing sequence (gaps allowed only where its drop counter says so).
func TestConcurrentPublishSubscribe(t *testing.T) {
	h := NewHub(Options{SubscriberBuffer: 8})
	const (
		publishers = 4
		perPub     = 50
		readers    = 3
	)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		sub, backlog := h.Subscribe("j", 0)
		wg.Add(1)
		go func(sub *Subscription, backlog []Event) {
			defer wg.Done()
			defer sub.Close()
			last := uint64(0)
			check := func(ev Event) {
				if ev.Seq <= last {
					t.Errorf("out-of-order delivery: %d after %d", ev.Seq, last)
				}
				last = ev.Seq
			}
			for _, ev := range backlog {
				check(ev)
			}
			for ev := range sub.C {
				check(ev)
			}
		}(sub, backlog)
	}
	var pubWG sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			for i := 0; i < perPub; i++ {
				h.Publish("j", curveEvent(p*perPub+i))
			}
		}(p)
	}
	pubWG.Wait()
	h.Publish("j", Event{Type: TypeStatus, Status: "done", Terminal: true})
	wg.Wait()
	want := int64(publishers*perPub + 1)
	if got := h.Stats().Published; got != want {
		t.Fatalf("Published = %d, want %d", got, want)
	}
	all := h.Since("j", 0)
	if len(all) != int(want) {
		t.Fatalf("history holds %d events, want %d", len(all), want)
	}
	for i, ev := range all {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("history seq %d at index %d", ev.Seq, i)
		}
	}
}

// TestSinkSeesPublishOrder: the sink receives every event synchronously
// in sequence order, before Publish returns.
func TestSinkSeesPublishOrder(t *testing.T) {
	var mu sync.Mutex
	var seen []uint64
	h := NewHub(Options{Sink: func(ev Event) {
		mu.Lock()
		seen = append(seen, ev.Seq)
		mu.Unlock()
	}})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				h.Publish("j", curveEvent(i))
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 100 {
		t.Fatalf("sink saw %d events, want 100", len(seen))
	}
	for i, seq := range seen {
		if seq != uint64(i+1) {
			t.Fatalf("sink order broken at index %d: seq %d", i, seq)
		}
	}
}

// TestEventsAfterBinarySearch pins the backlog cut against a linear scan.
func TestEventsAfterBinarySearch(t *testing.T) {
	var hist []Event
	for i := 1; i <= 9; i++ {
		hist = append(hist, Event{Seq: uint64(i)})
	}
	for after := uint64(0); after <= 10; after++ {
		got := eventsAfter(hist, after)
		var want []Event
		for _, ev := range hist {
			if ev.Seq > after {
				want = append(want, ev)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("eventsAfter(%d) = %v, want %v", after, got, want)
		}
	}
}
