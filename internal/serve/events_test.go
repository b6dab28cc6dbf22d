package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/serve/tracestore"
	"enhancedbhpo/internal/trace"
)

// sseStream reads Server-Sent Events frames off one GET /events
// connection. Close the underlying body to simulate a dropped client.
type sseStream struct {
	resp *http.Response
	sc   *bufio.Scanner
}

// openSSE connects to a job's event feed, resuming after lastID when
// non-zero — the reconnect path a real EventSource client takes.
func openSSE(t *testing.T, base, jobID string, lastID uint64) *sseStream {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/jobs/"+jobID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET /events: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("GET /events content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return &sseStream{resp: resp, sc: sc}
}

// next returns the stream's next event, or ok=false at end of stream.
func (s *sseStream) next(t *testing.T) (events.Event, bool) {
	t.Helper()
	var data []byte
	var sawID string
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			if len(data) == 0 {
				continue // keepalive comment
			}
			var ev events.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				t.Fatalf("decoding SSE data %q: %v", data, err)
			}
			if sawID != fmt.Sprint(ev.Seq) {
				t.Fatalf("SSE id %q does not match payload seq %d", sawID, ev.Seq)
			}
			return ev, true
		case strings.HasPrefix(line, "id:"):
			sawID = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		}
	}
	return events.Event{}, false
}

func (s *sseStream) close() { s.resp.Body.Close() }

// TestSSEOrderedResumable is the streaming acceptance scenario, run
// under -race by `make sse`: a client follows a job's SSE feed, loses
// its connection mid-run, reconnects with Last-Event-ID, and must end up
// having seen every event exactly once, in order, ending with the
// terminal transition — and the streamed curve points must equal the
// job's final snapshot curve.
func TestSSEOrderedResumable(t *testing.T) {
	ts, m := newTestServer(t, Config{PoolSize: 2, MaxJobs: 1})
	sub := postJob(t, ts.URL, smallSpec())

	// Phase 1: stream the first few events, then drop the connection —
	// an unlucky proxy timeout mid-run.
	s1 := openSSE(t, ts.URL, sub.ID, 0)
	var got []events.Event
	for len(got) < 3 {
		ev, ok := s1.next(t)
		if !ok {
			t.Fatalf("stream ended after %d events, wanted to drop at 3", len(got))
		}
		got = append(got, ev)
	}
	s1.close()

	// Phase 2: resume exactly after the last seen sequence number.
	s2 := openSSE(t, ts.URL, sub.ID, got[len(got)-1].Seq)
	defer s2.close()
	for {
		ev, ok := s2.next(t)
		if !ok {
			break
		}
		got = append(got, ev)
	}

	// Exactly once, in order, nothing missing.
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d — the feed lost or duplicated events: %+v", i, ev.Seq, got)
		}
		if ev.JobID != sub.ID {
			t.Fatalf("event %d carries job %q, want %q", i, ev.JobID, sub.ID)
		}
	}
	last := got[len(got)-1]
	if !last.Terminal || last.Type != events.TypeStatus || last.Status != string(StatusDone) {
		t.Fatalf("stream did not end with a terminal done event: %+v", last)
	}
	if got[0].Type != events.TypeStatus || got[0].Status != string(StatusRunning) {
		t.Fatalf("first event is not the running transition: %+v", got[0])
	}

	// The streamed curve equals the snapshot's anytime curve.
	snap := getJob(t, ts.URL, sub.ID)
	var streamed []trace.Point
	for _, ev := range got {
		if ev.Type == events.TypeCurvePoint {
			streamed = append(streamed, *ev.Point)
		}
	}
	if len(streamed) != len(snap.Curve) {
		t.Fatalf("streamed %d curve points, snapshot has %d", len(streamed), len(snap.Curve))
	}
	for i := range streamed {
		if streamed[i] != snap.Curve[i] {
			t.Fatalf("curve point %d: streamed %+v, snapshot %+v", i, streamed[i], snap.Curve[i])
		}
	}
	if snap.LastSeq != last.Seq {
		t.Fatalf("snapshot last_seq %d, stream ended at %d", snap.LastSeq, last.Seq)
	}
	if m.Metrics().EventsPublished < int64(len(got)) {
		t.Fatalf("events_published %d < %d events delivered", m.Metrics().EventsPublished, len(got))
	}
}

// TestSSESubscribeAfterTerminal: a subscriber arriving after the job
// finished gets the entire history as backlog and a stream that ends
// immediately — no hang, no missing terminal.
func TestSSESubscribeAfterTerminal(t *testing.T) {
	ts, _ := newTestServer(t, Config{PoolSize: 2, MaxJobs: 1})
	sub := postJob(t, ts.URL, smallSpec())
	pollUntil(t, ts.URL, sub.ID, func(s Snapshot) bool { return terminal(s.Status) }, "terminal")

	s := openSSE(t, ts.URL, sub.ID, 0)
	defer s.close()
	var got []events.Event
	for {
		ev, ok := s.next(t)
		if !ok {
			break
		}
		got = append(got, ev)
	}
	if len(got) == 0 || !got[len(got)-1].Terminal {
		t.Fatalf("late subscriber got %d events, terminal missing", len(got))
	}
}

// TestTraceSurvivesKillAndRestart is the durability acceptance scenario:
// a job runs to completion on a journaled daemon, the daemon dies
// without any shutdown, and a restarted daemon must serve GET
// /jobs/{id}/trace byte-identically — the complete pre-crash anytime
// curve — plus a resumable event feed for the finished job.
func TestTraceSurvivesKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{PoolSize: 2, MaxJobs: 1, DataDir: dir}
	m1, err := NewManagerFromJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(NewServer(m1))
	job, err := m1.SubmitToken(smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m1, job.ID, func(s Status) bool { return s == StatusDone }, "done")

	fetchTrace := func(base, id, query string) []byte {
		resp, err := http.Get(base + "/jobs/" + id + "/trace" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /trace: status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	before := fetchTrace(ts1.URL, job.ID, "")
	ts1.Close()
	// Kill: no Shutdown, no journal or trace-store close. The terminal
	// event was fsynced when the job finished, so the curve is on disk.

	m2, err := NewManagerFromJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewServer(m2))
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m2.Shutdown(ctx); err != nil {
			t.Errorf("m2 shutdown: %v", err)
		}
	})
	after := fetchTrace(ts2.URL, job.ID, "")
	if string(before) != string(after) {
		t.Fatalf("trace differs across restart:\n before %s\n after  %s", before, after)
	}
	var curve []trace.Point
	if err := json.Unmarshal(after, &curve); err != nil {
		t.Fatal(err)
	}
	if len(curve) == 0 {
		t.Fatal("restarted trace is empty")
	}

	// The raw event log survived too, terminal tail intact, and the SSE
	// feed on the restarted daemon replays it and closes.
	var evs []events.Event
	if err := json.Unmarshal(fetchTrace(ts2.URL, job.ID, "?events=1"), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || !evs[len(evs)-1].Terminal {
		t.Fatalf("restarted event log missing its terminal tail (%d events)", len(evs))
	}
	s := openSSE(t, ts2.URL, job.ID, 0)
	defer s.close()
	n := 0
	for {
		ev, ok := s.next(t)
		if !ok {
			break
		}
		n++
		if ev.Seq != evs[n-1].Seq {
			t.Fatalf("restarted feed seq %d at position %d, event log says %d", ev.Seq, n-1, evs[n-1].Seq)
		}
	}
	if n != len(evs) {
		t.Fatalf("restarted feed replayed %d events, log holds %d", n, len(evs))
	}

	// A fresh poll with ?since= past the end returns an empty delta.
	snap := getJob(t, ts2.URL, job.ID)
	if snap.LastSeq != evs[len(evs)-1].Seq {
		t.Fatalf("restarted last_seq %d, want %d", snap.LastSeq, evs[len(evs)-1].Seq)
	}
}

// TestGetJobSince: ?since=N returns only the curve points past event
// sequence N — the incremental poll behind cheap dashboards.
func TestGetJobSince(t *testing.T) {
	ts, _ := newTestServer(t, Config{PoolSize: 2, MaxJobs: 1})
	sub := postJob(t, ts.URL, smallSpec())
	pollUntil(t, ts.URL, sub.ID, func(s Snapshot) bool { return terminal(s.Status) }, "terminal")

	// The raw event log gives the seq of each curve point.
	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/trace?events=1")
	if err != nil {
		t.Fatal(err)
	}
	var evs []events.Event
	if err := jsonDecode(resp, &evs); err != nil {
		t.Fatal(err)
	}
	var curveSeqs []uint64
	for _, ev := range evs {
		if ev.Type == events.TypeCurvePoint {
			curveSeqs = append(curveSeqs, ev.Seq)
		}
	}
	if len(curveSeqs) < 2 {
		t.Fatalf("job produced %d curve points, need at least 2", len(curveSeqs))
	}

	since := curveSeqs[1] // past the first two curve points
	snap := Snapshot{}
	resp, err = http.Get(ts.URL + "/jobs/" + sub.ID + "?since=" + strconv.FormatUint(since, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonDecode(resp, &snap); err != nil {
		t.Fatal(err)
	}
	full := getJob(t, ts.URL, sub.ID)
	if want := len(full.Curve) - 2; len(snap.Curve) != want {
		t.Fatalf("?since=%d returned %d points, want %d of %d", since, len(snap.Curve), want, len(full.Curve))
	}
	for i, p := range snap.Curve {
		if p != full.Curve[i+2] {
			t.Fatalf("delta point %d: %+v, want %+v", i, p, full.Curve[i+2])
		}
	}
	if snap.LastSeq == 0 || snap.Status != full.Status {
		t.Fatalf("delta snapshot lost status or cursor: %+v", snap)
	}

	// Cursor at the end → empty delta; garbage → 400.
	resp, err = http.Get(ts.URL + "/jobs/" + sub.ID + "?since=" + strconv.FormatUint(snap.LastSeq, 10))
	if err != nil {
		t.Fatal(err)
	}
	var empty Snapshot
	if err := jsonDecode(resp, &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Curve) != 0 {
		t.Fatalf("?since=last_seq returned %d points, want 0", len(empty.Curve))
	}
	resp, err = http.Get(ts.URL + "/jobs/" + sub.ID + "?since=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?since=banana: status %d, want 400", resp.StatusCode)
	}
}

// TestSSEDrainClosesStreams: turning on drain mode ends open event
// streams promptly, so a graceful shutdown is never held open by a
// subscriber watching a long job.
func TestSSEDrainClosesStreams(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	m := NewManager(Config{
		PoolSize: 1, MaxJobs: 1,
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			return &gateEvaluator{inner: inner, gate: gate, entered: entered}
		},
	})
	srv := NewServer(m)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	job, err := m.SubmitToken(smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the job is wedged mid-evaluation: the feed stays open

	s := openSSE(t, ts.URL, job.ID, 0)
	defer s.close()
	if ev, ok := s.next(t); !ok || ev.Status != string(StatusRunning) {
		t.Fatalf("first event = %+v, %v; want the running transition", ev, ok)
	}
	if got := m.Metrics().EventSubscribers; got != 1 {
		t.Fatalf("event_subscribers = %d with one open stream, want 1", got)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for s.sc.Scan() {
			// Drain frames until the server ends the stream.
		}
	}()
	srv.SetDraining(true)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream survived drain mode")
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Metrics().EventSubscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("event_subscribers stuck at %d after drain", m.Metrics().EventSubscribers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSlowConsumerDropsCounted: a stalled subscriber has the events
// published past its buffer dropped from its stream — counted in the
// service metrics — while the hub history keeps everything, so a
// backfill read is still complete.
func TestSlowConsumerDropsCounted(t *testing.T) {
	_, m := newTestServer(t, Config{PoolSize: 1, MaxJobs: 1})
	const jobID = "job-synthetic"
	stuck, _ := m.hub.Subscribe(jobID, 0)
	defer stuck.Close()

	const published = events.SubscriberBuffer + 4
	for i := 0; i < published; i++ {
		m.hub.Publish(jobID, events.Event{Type: events.TypeRung, Round: i})
	}
	// The buffer fills; everything past it must have been shed.
	const dropped = published - events.SubscriberBuffer
	if got := len(stuck.C); got != events.SubscriberBuffer {
		t.Fatalf("subscription holds %d events, want a full buffer of %d", got, events.SubscriberBuffer)
	}
	if got := m.Metrics().EventsDropped; got != dropped {
		t.Fatalf("events_dropped_slow_consumer = %d, want %d", got, dropped)
	}
	// Drops never touch history: the gap backfill still has every event.
	backlog := m.hub.Since(jobID, 0)
	if len(backlog) != published {
		t.Fatalf("hub history holds %d events, want %d", len(backlog), published)
	}
	for i, ev := range backlog {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("history seq %d at position %d", ev.Seq, i)
		}
	}
}

// TestMetricsExposeEventCounters: the /metrics payload carries the
// streaming-telemetry counters by their documented JSON names.
func TestMetricsExposeEventCounters(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManagerFromJournal(Config{PoolSize: 2, MaxJobs: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	job, err := m.SubmitToken(smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, job.ID, func(s Status) bool { return s == StatusDone }, "done")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := jsonDecode(resp, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"event_subscribers", "events_published", "events_dropped_slow_consumer", "trace_store_bytes"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
	mt := m.Metrics()
	if mt.EventsPublished == 0 {
		t.Error("events_published = 0 after a finished job")
	}
	if mt.TraceStoreBytes == 0 {
		t.Error("trace_store_bytes = 0 with persistence on")
	}
	if mt.TraceStoreErrors != 0 {
		t.Errorf("trace_store_errors = %d", mt.TraceStoreErrors)
	}

	// The durable trace really is on disk where the metric says.
	evs, err := tracestore.Read(TraceDir(dir), job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || !evs[len(evs)-1].Terminal {
		t.Fatalf("trace store holds %d events for the finished job", len(evs))
	}
}
