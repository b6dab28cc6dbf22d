package events

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"enhancedbhpo/internal/trace"
)

// awkward are strings encoding/json rewrites: HTML-significant bytes,
// the JavaScript line separators, invalid UTF-8 and control bytes.
var awkward = []string{
	"plain",
	`<script>alert("x")</script> & more`,
	"line\u2028separator\u2029paragraph",
	"bad \xff\xfe utf-8 \xc3",
	"tab\tnewline\n quote\" backslash\\ nul\x00 del\x7f",
	"",
}

// awkwardScores are finite floats at the edges of the float64 range and
// at the exponents where encoding/json switches between plain and
// exponent notation.
var awkwardScores = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022,
	1e21, math.Nextafter(1e21, 0), 1e20, 1e-6, math.Nextafter(1e-6, 0), 1e-7,
	123456789012345678901, 0.1 + 0.2, 1.0 / 3,
}

// eventsOfEveryType is one event of each type, with free-text fields
// holding s and a curve point scoring score.
func eventsOfEveryType(s string, score float64) []Event {
	at := time.Date(2024, 2, 29, 23, 59, 59, 123456789, time.FixedZone("x", -(3*3600+30*60)))
	return []Event{
		{Type: TypeCurvePoint, Time: at, Point: &trace.Point{Evaluations: 7, CumBudget: 1 << 40, CumTime: math.MaxInt64, BestScore: score}},
		{Type: TypeRung, Time: at, Round: 3, Budget: 81},
		{Type: TypeDeadline, Time: at, Budget: -1},
		{Type: TypeFailure, Time: at.UTC(), Failures: 4, Error: s},
		{Type: TypeStatus, Time: time.Time{}, Status: s, Reason: s, Error: s},
		{Type: TypePreempted, Time: at, Round: math.MaxInt},
		{Type: TypeResumed, Time: at.Local()},
		{Type: Type(s), Time: at},
	}
}

// TestPublishLineIsMarshal: the line Publish keeps for an event, hands
// the sink and every subscriber, is json.Marshal of the stamped event and
// a newline, byte for byte, for every type, every awkward string and
// every awkward score; the sink and the readers are handed the very bytes
// retained, not copies.
func TestPublishLineIsMarshal(t *testing.T) {
	var sunk []Entry
	h := NewHub(Options{Sink: func(e Entry) { sunk = append(sunk, e) }})
	var want [][]byte
	var stamped []Event
	publish := func(job string, ev Event) {
		st := h.Publish(job, ev)
		line, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("the reference encoding of %+v failed: %v", st, err)
		}
		want = append(want, append(line, '\n'))
		stamped = append(stamped, st)
	}
	for i, s := range awkward {
		for _, score := range awkwardScores {
			for _, ev := range eventsOfEveryType(s, score) {
				publish("job-"+s, ev) // an ID that needs escaping too
			}
		}
		publish("job-"+s, Event{Type: TypeStatus, Status: "done", Terminal: i%2 == 0})
	}
	if len(sunk) != len(want) {
		t.Fatalf("the sink saw %d events, want %d", len(sunk), len(want))
	}
	var read []Entry
	for _, s := range awkward {
		sub := h.Subscribe("job-"+s, 0)
		evs, _ := sub.Next()
		sub.Close()
		read = append(read, evs...)
	}
	for i := range want {
		if !bytes.Equal(sunk[i].Line, want[i]) {
			t.Fatalf("event %d: the line is\n%q\nwant json.Marshal's\n%q", i, sunk[i].Line, want[i])
		}
		if sunk[i].Event != stamped[i] || read[i].Event != stamped[i] {
			t.Fatalf("event %d: the sink got %+v, a reader %+v; Publish returned %+v", i, sunk[i].Event, read[i].Event, stamped[i])
		}
		if &read[i].Line[0] != &sunk[i].Line[0] {
			t.Fatalf("event %d: the reader and the sink hold different copies of the line", i)
		}
	}
}

// TestUnencodableEventPublished: an event json.Marshal refuses (a NaN or
// infinite score) is numbered, retained, handed to the sink and read like
// any other, with no line; the events around it keep theirs.
func TestUnencodableEventPublished(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var sunk []Entry
		h := NewHub(Options{Sink: func(e Entry) { sunk = append(sunk, e) }})
		h.Publish("j", curveEvent(1))
		ev := h.Publish("j", Event{Type: TypeCurvePoint, Point: &trace.Point{Evaluations: 2, BestScore: bad}})
		h.Publish("j", curveEvent(3))
		if ev.Seq != 2 {
			t.Fatalf("score %v: the event got seq %d, want 2", bad, ev.Seq)
		}
		sub := h.Subscribe("j", 0)
		evs, _ := sub.Next()
		sub.Close()
		if len(sunk) != 3 || len(evs) != 3 || h.Stats().Published != 3 {
			t.Fatalf("score %v: sink %d, reader %d, published %d; want 3 each", bad, len(sunk), len(evs), h.Stats().Published)
		}
		for i, e := range evs {
			if (e.Line == nil) != (i == 1) || (sunk[i].Line == nil) != (i == 1) {
				t.Fatalf("score %v: event %d line %q, sink's %q; want nil exactly for the unencodable one", bad, i, e.Line, sunk[i].Line)
			}
		}
		if got := h.Since("j", 1); len(got) != 2 || got[0].Seq != 2 || got[0].Point.Evaluations != 2 {
			t.Fatalf("score %v: Since(1) = %+v, want the retained event first", bad, got)
		}
	}
}

// TestPrimedEventsHaveNoLine: a history primed from an earlier process
// life is read with no line — its readers encode it, as the stream did
// before events kept their lines.
func TestPrimedEventsHaveNoLine(t *testing.T) {
	h := NewHub(Options{})
	h.Prime("j", 2, true, func() []Event {
		return []Event{{Seq: 1, JobID: "j", Type: TypeRung, Round: 1}, {Seq: 2, JobID: "j", Type: TypeStatus, Terminal: true}}
	})
	sub := h.Subscribe("j", 0)
	evs, wake := sub.Next()
	if len(evs) != 2 || wake != nil || evs[0].Line != nil || evs[1].Line != nil || evs[0].Round != 1 {
		t.Fatalf("primed history read as %+v (wake %v), want two events without lines and a complete feed", evs, wake)
	}
}

// TestNextTailIsHistory: Next hands out the feed's own entries, not a
// copy, capped at their length, so a reader that appends to what it got
// cannot write into the history; while a publisher keeps appending,
// readers that still hold earlier tails see them unchanged. Run it under
// -race: the publisher's appends and the readers' reads of entries handed
// out before must not touch the same memory.
func TestNextTailIsHistory(t *testing.T) {
	h := NewHub(Options{})
	for i := 1; i <= 5; i++ {
		h.Publish("j", curveEvent(i))
	}
	a, b := h.Subscribe("j", 0), h.Subscribe("j", 2)
	defer a.Close()
	defer b.Close()
	ta, _ := a.Next()
	tb, _ := b.Next()
	if len(ta) != 5 || len(tb) != 3 || cap(ta) != len(ta) || cap(tb) != len(tb) {
		t.Fatalf("tails of %d and %d events with capacities %d and %d; want 5 and 3, capped", len(ta), len(tb), cap(ta), cap(tb))
	}
	if &ta[2] != &tb[0] {
		t.Fatal("two readers of one history were handed different copies of it")
	}
	_ = append(ta, Entry{Event: Event{Seq: 99}})
	h.Publish("j", curveEvent(6))
	if next, _ := b.Next(); len(next) != 1 || next[0].Seq != 6 || next[0].Point.Evaluations != 6 {
		t.Fatalf("after a reader appended to its tail, the next event read as %+v", next)
	}

	const publishes, readers = 400, 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		sub := h.Subscribe("j", 0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			var held [][]Entry
			for {
				evs, wake := sub.Next()
				if len(evs) > 0 {
					held = append(held, evs)
				}
				if wake == nil {
					break
				}
				<-wake
			}
			next := uint64(1)
			for _, evs := range held {
				for _, e := range evs {
					line, err := json.Marshal(e.Event)
					if e.Seq != next || err != nil || !bytes.Equal(e.Line, append(line, '\n')) {
						t.Errorf("held entry %d (want seq %d) changed: line %q", e.Seq, next, e.Line)
						return
					}
					next++
				}
			}
			if next != 6+publishes+2 {
				t.Errorf("a reader ended after seq %d, want %d", next-1, 6+publishes+1)
			}
		}()
	}
	for i := 7; i < 7+publishes; i++ {
		h.Publish("j", curveEvent(i))
	}
	h.Publish("j", Event{Type: TypeStatus, Status: "done", Terminal: true})
	wg.Wait()
}
