package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/serve/journal"
	"enhancedbhpo/internal/serve/tracestore"
	"enhancedbhpo/internal/trace"
)

// wirePoints is the frozen wire format of trace.Point: the strings are
// what commit 44490f1 (hand-written MarshalJSON over a shadow struct)
// wrote for these values, written out literally. Every file and body a
// curve point travels in embeds exactly these bytes.
func wirePoints() ([]trace.Point, []string) {
	a, b := 0.1, 0.2 // summed at run time: as constants they fold to 0.3
	return []trace.Point{
			{},
			{Evaluations: 1, CumBudget: 100, CumTime: -1500 * time.Microsecond, BestScore: math.Copysign(0, -1)},
			{Evaluations: 2, CumBudget: 300, CumTime: math.MaxInt64, BestScore: a + b},
			{Evaluations: 3, CumBudget: 900, CumTime: 3*time.Millisecond + 17, BestScore: 1e-7},
			{Evaluations: 4, CumBudget: 2700, CumTime: time.Hour, BestScore: 1e21},
			{Evaluations: 5, CumBudget: 8100, CumTime: 1, BestScore: math.SmallestNonzeroFloat64},
			{Evaluations: -6, CumBudget: -1, CumTime: math.MinInt64, BestScore: math.MaxFloat64},
		}, []string{
			`{"evaluations":0,"cum_budget":0,"cum_time_ns":0,"best_score":0}`,
			`{"evaluations":1,"cum_budget":100,"cum_time_ns":-1500000,"best_score":-0}`,
			`{"evaluations":2,"cum_budget":300,"cum_time_ns":9223372036854775807,"best_score":0.30000000000000004}`,
			`{"evaluations":3,"cum_budget":900,"cum_time_ns":3000017,"best_score":1e-7}`,
			`{"evaluations":4,"cum_budget":2700,"cum_time_ns":3600000000000,"best_score":1e+21}`,
			`{"evaluations":5,"cum_budget":8100,"cum_time_ns":1,"best_score":5e-324}`,
			`{"evaluations":-6,"cum_budget":-1,"cum_time_ns":-9223372036854775808,"best_score":1.7976931348623157e+308}`,
		}
}

// samePoint compares bit for bit: -0 and 0 are different scores on the wire.
func samePoint(a, b trace.Point) bool {
	return a.Evaluations == b.Evaluations && a.CumBudget == b.CumBudget && a.CumTime == b.CumTime &&
		math.Float64bits(a.BestScore) == math.Float64bits(b.BestScore)
}

// TestPointWireFormatFrozen pins every byte a curve point is written as —
// bare, in an EncodeAnytime array, in a trace-log line and in a journal
// result record — and what those bytes decode to. It passes unmodified at
// the commit before trace.Point took its wire names from struct tags.
func TestPointWireFormatFrozen(t *testing.T) {
	points, want := wirePoints()
	for i, p := range points {
		got, err := json.Marshal(p)
		if err != nil || string(got) != want[i] {
			t.Errorf("point %d encodes as %s, %v; want %s", i, got, err, want[i])
		}
		var back trace.Point
		if err := json.Unmarshal([]byte(want[i]), &back); err != nil || !samePoint(back, p) {
			t.Errorf("point %d: %s decodes to %+v, %v; want %+v", i, want[i], back, err, p)
		}
	}
	array := "[" + strings.Join(want, ",") + "]"

	var buf bytes.Buffer
	if err := trace.EncodeAnytime(&buf, points); err != nil || buf.String() != array+"\n" {
		t.Errorf("EncodeAnytime wrote %q, %v; want %q", buf.String(), err, array+"\n")
	}
	curve, err := trace.DecodeAnytime(strings.NewReader(array))
	if err != nil || len(curve) != len(points) {
		t.Fatalf("DecodeAnytime: %d points, %v", len(curve), err)
	}
	for i := range points {
		if !samePoint(curve[i], points[i]) {
			t.Errorf("DecodeAnytime point %d = %+v, want %+v", i, curve[i], points[i])
		}
	}

	at := time.Date(2026, 10, 4, 12, 0, 0, 123456789, time.UTC)
	const stamp = `"time":"2026-10-04T12:00:00.123456789Z","job":"job-1",`
	traceDir := t.TempDir()
	store, err := tracestore.Open(traceDir, tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var traceWant strings.Builder
	for i := range points {
		ev := events.Event{Seq: uint64(i + 1), Type: events.TypeCurvePoint, Time: at, JobID: "job-1", Point: &points[i]}
		if err := store.Append(ev); err != nil {
			t.Fatal(err)
		}
		traceWant.WriteString(`{"seq":` + string(rune('1'+i)) + `,"type":"curve_point",` + stamp + `"point":` + want[i] + "}\n")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(filepath.Join(traceDir, "trace-000001.jsonl")); err != nil || string(raw) != traceWant.String() {
		t.Errorf("trace log holds\n%s(%v) want\n%s", raw, err, traceWant.String())
	}
	evs, err := tracestore.Read(traceDir, "job-1")
	if err != nil || len(evs) != len(points) {
		t.Fatalf("tracestore.Read: %d events, %v", len(evs), err)
	}
	for i, ev := range evs {
		if ev.Point == nil || !samePoint(*ev.Point, points[i]) || ev.Seq != uint64(i+1) || !ev.Time.Equal(at) {
			t.Errorf("trace event %d read back as %+v (point %+v)", i, ev, ev.Point)
		}
	}

	journalDir := t.TempDir()
	w, err := journal.Open(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.5
	rec := journal.Record{Type: "result", Time: at, JobID: "job-1", Status: "done", Evaluations: len(points), Curve: points, BestScore: &best}
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recWant := `{"t":"result",` + stamp + `"status":"done","evaluations":7,"curve":` + array + `,"best_score":0.5}` + "\n"
	if raw, err := os.ReadFile(filepath.Join(journalDir, "journal-000001.jsonl")); err != nil || string(raw) != recWant {
		t.Errorf("journal holds\n%s(%v) want\n%s", raw, err, recWant)
	}
	var recBack journal.Record
	if err := json.Unmarshal([]byte(recWant), &recBack); err != nil || len(recBack.Curve) != len(points) {
		t.Fatalf("journal record decodes to %d points, %v", len(recBack.Curve), err)
	}
	for i := range points {
		if !samePoint(recBack.Curve[i], points[i]) {
			t.Errorf("journal curve point %d = %+v, want %+v", i, recBack.Curve[i], points[i])
		}
	}

	// Keys match case-insensitively, unknown keys — the Go field names
	// among them — are skipped, a wrong type or a fractional duration is an
	// error, and a NaN score does not encode (ROADMAP item 4(c)).
	var p trace.Point
	if err := json.Unmarshal([]byte(`{"Evaluations":7,"CUM_BUDGET":8,"Cum_Time_Ns":9,"BEST_score":0.25,"extra":[1,{"a":2}]}`), &p); err != nil ||
		!samePoint(p, trace.Point{Evaluations: 7, CumBudget: 8, CumTime: 9, BestScore: 0.25}) {
		t.Errorf("keys in another case decode to %+v, %v", p, err)
	}
	p = trace.Point{}
	if err := json.Unmarshal([]byte(`{"CumTime":9,"CumBudget":3,"cum_time":4,"BestScore":1}`), &p); err != nil || !samePoint(p, trace.Point{}) {
		t.Errorf("unknown keys decode to %+v, %v; want the zero point", p, err)
	}
	for _, bad := range []string{`{"evaluations":"x"}`, `{"cum_time_ns":1.5}`, `{"best_score":"0.5"}`} {
		if err := json.Unmarshal([]byte(bad), &p); err == nil {
			t.Errorf("%s decoded without error", bad)
		}
	}
	if _, err := json.Marshal(trace.Point{BestScore: math.NaN()}); err == nil {
		t.Error("a NaN score encoded")
	}
}
