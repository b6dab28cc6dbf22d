package tracestore

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"enhancedbhpo/internal/events"
)

// frozenEvents are the appends TestSegmentBytesFrozen pins the files of.
func frozenEvents() []events.Event {
	rung := events.Event{Seq: 1, Type: events.TypeRung, Time: time.Unix(7, 0).UTC(), JobID: "job-2", Round: 1, Budget: 9}
	return []events.Event{point(1), point(2), rung, point(3), terminalEvent(4)}
}

// TestSegmentBytesFrozen pins, byte for byte, the segments a fixed
// sequence of appends leaves, one rotation included, so a change to the
// writer cannot change what is on disk. The literals are what the parent
// of the shared segment writer wrote.
func TestSegmentBytesFrozen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range frozenEvents() {
		if err := s.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"trace-000001.jsonl": `{"seq":1,"type":"curve_point","time":"1970-01-01T00:00:01.000000001Z","job":"job-1","point":{"evaluations":1,"cum_budget":10,"cum_time_ns":1000000000,"best_score":0.01}}` + "\n" +
			`{"seq":2,"type":"curve_point","time":"1970-01-01T00:00:02.000000002Z","job":"job-1","point":{"evaluations":2,"cum_budget":20,"cum_time_ns":2000000000,"best_score":0.02}}` + "\n" +
			`{"seq":1,"type":"rung","time":"1970-01-01T00:00:07Z","job":"job-2","round":1,"budget":9}` + "\n",
		"trace-000002.jsonl": `{"seq":3,"type":"curve_point","time":"1970-01-01T00:00:03.000000003Z","job":"job-1","point":{"evaluations":3,"cum_budget":30,"cum_time_ns":3000000000,"best_score":0.03}}` + "\n" +
			`{"seq":4,"type":"status","time":"1970-01-01T00:00:04Z","job":"job-1","status":"done","terminal":true}` + "\n",
	}
	if names := dirNames(t, dir); len(names) != len(want) {
		t.Errorf("directory holds %v, want the %d segments", names, len(want))
	}
	for name, data := range want {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != data {
			t.Errorf("%s: %v\n got %q\nwant %q", name, err, got, data)
		}
	}
}

// TestOnChangeOnePerAppend: one OnChange(name, false) per append that did
// not seal its segment, one OnChange(name, true) per sealed segment, and
// nothing for a segment once it is sealed.
func TestOnChangeOnePerAppend(t *testing.T) {
	var calls []string
	sealed := map[string]bool{}
	s, err := Open(t.TempDir(), Options{MaxBytes: 1 << 10, OnChange: func(name string, seal bool) {
		if sealed[name] {
			t.Errorf("%s announced (sealed=%v) after it was sealed", name, seal)
		}
		sealed[name] = seal
		if !seal {
			calls = append(calls, name)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	const appends = 100
	for i := 1; i <= appends; i++ {
		if err := s.Append(point(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seals := 0
	for _, seal := range sealed {
		if seal {
			seals++
		}
	}
	if seals < 5 || len(calls)+seals != appends {
		t.Fatalf("%d unsealed announcements + %d seals for %d appends; want several seals and one call per append", len(calls), seals, appends)
	}
}

// TestEveryLifeStartsItsOwnSegment: a store that appends nothing leaves
// no file; one that appends starts the segment after the newest.
func TestEveryLifeStartsItsOwnSegment(t *testing.T) {
	dir := t.TempDir()
	for life := 1; life <= 4; life++ {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if life%2 == 0 {
			if err := s.Append(point(life)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if names := dirNames(t, dir); len(names) != life/2 || life > 1 && names[len(names)-1] != segmentName(life/2) {
			t.Fatalf("after life %d the directory holds %v", life, names)
		}
	}
}
