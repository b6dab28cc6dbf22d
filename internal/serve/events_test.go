package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
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
// under -race by `make race`: a client follows a job's SSE feed, loses
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

// TestGetJobSince: ?since=N returns only the curve points past event
// sequence N — the incremental poll behind cheap dashboards.
func TestGetJobSince(t *testing.T) {
	ts, _ := newTestServer(t, Config{PoolSize: 2, MaxJobs: 1})
	sub := postJob(t, ts.URL, smallSpec())
	pollUntil(t, ts.URL, sub.ID, func(s Snapshot) bool { return terminal(s.Status) }, "terminal")

	// The raw event log gives the seq of each curve point.
	var evs []events.Event
	getJSON(t, ts.URL+"/jobs/"+sub.ID+"/trace?events=1", &evs)
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
	var snap Snapshot
	getJSON(t, ts.URL+"/jobs/"+sub.ID+"?since="+strconv.FormatUint(since, 10), &snap)
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
	var empty Snapshot
	getJSON(t, ts.URL+"/jobs/"+sub.ID+"?since="+strconv.FormatUint(snap.LastSeq, 10), &empty)
	if len(empty.Curve) != 0 {
		t.Fatalf("?since=last_seq returned %d points, want 0", len(empty.Curve))
	}
	if code, _ := httpDo(t, http.MethodGet, ts.URL+"/jobs/"+sub.ID+"?since=banana", ""); code != http.StatusBadRequest {
		t.Fatalf("?since=banana: status %d, want 400", code)
	}
}

// TestGetJobPollReassemblesCurve: clients that follow a live job by one
// full GET /jobs/{id} and then ?since=last_seq polls reassemble exactly
// the curve /trace serves once it is done — no point lost between a curve
// and its cursor, none served twice. The evaluations are instant, so
// points are published while the polls read.
func TestGetJobPollReassemblesCurve(t *testing.T) {
	ts, _ := newTestServer(t, Config{
		PoolSize: 2, MaxJobs: 1,
		WrapEvaluator: func(_ string, inner hpo.Evaluator) hpo.Evaluator {
			return &instantEvaluator{inner: inner}
		},
	})
	spec := tinySpec("", 5)
	spec.NumHPs, spec.Trials = 8, 3000
	job := postJob(t, ts.URL, spec)
	get := func(url string) (snap Snapshot, err error) {
		resp, err := http.Get(url)
		if err != nil {
			return snap, err
		}
		defer resp.Body.Close()
		return snap, json.NewDecoder(resp.Body).Decode(&snap)
	}
	const pollers = 4
	curves := make([][]trace.Point, pollers)
	errs := make([]error, pollers)
	var wg sync.WaitGroup
	for p := range curves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			url := ts.URL + "/jobs/" + job.ID // the full GET first, then deltas
			for {
				snap, err := get(url)
				if err != nil {
					errs[p] = err
					return
				}
				curves[p] = append(curves[p], snap.Curve...)
				if terminal(snap.Status) {
					return
				}
				url = ts.URL + "/jobs/" + job.ID + "?since=" + strconv.FormatUint(snap.LastSeq, 10)
			}
		}()
	}
	wg.Wait()
	var want []trace.Point
	getJSON(t, ts.URL+"/jobs/"+job.ID+"/trace", &want)
	if len(want) != spec.Trials {
		t.Fatalf("/trace holds %d points, want %d", len(want), spec.Trials)
	}
	for p, curve := range curves {
		if errs[p] != nil {
			t.Fatalf("poller %d: %v", p, errs[p])
		}
		if !slices.Equal(curve, want) {
			t.Errorf("poller %d reassembled %d points, /trace holds %d", p, len(curve), len(want))
		}
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
		shutdown(t, m)
	})
	job := submitAs(t, m, smallSpec(), "job-1")
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

// TestSlowConsumerDropsCounted: a stalled subscriber that reads nothing
// while more events are published than any per-subscriber buffer would
// hold (256) gets them all, in order, on its next read, and the service
// metrics count no drop.
func TestSlowConsumerDropsCounted(t *testing.T) {
	_, m := newTestServer(t, Config{PoolSize: 1, MaxJobs: 1})
	const jobID = "job-synthetic"
	stuck := m.hub.Subscribe(jobID, 0)
	defer stuck.Close()

	const published = 256 + 4
	for i := 0; i < published; i++ {
		m.hub.Publish(jobID, events.Event{Type: events.TypeRung, Round: i})
	}
	got, wake := stuck.Next()
	if len(got) != published || wake == nil {
		t.Fatalf("the stalled subscriber's next read returned %d events (wake %v), want %d and an open feed", len(got), wake, published)
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) || ev.Round != i {
			t.Fatalf("event %d has seq %d, round %d", i, ev.Seq, ev.Round)
		}
	}
	if got := m.Metrics().EventsDropped; got != 0 {
		t.Fatalf("events_dropped_slow_consumer = %d, want 0", got)
	}
	if got := m.Metrics().EventSubscribers; got != 1 {
		t.Fatalf("event_subscribers = %d with one open subscription, want 1", got)
	}
}

// TestMetricsExposeEventCounters: the /metrics payload carries the
// streaming-telemetry counters by their documented JSON names.
func TestMetricsExposeEventCounters(t *testing.T) {
	dir := t.TempDir()
	m := bootJournaled(t, Config{PoolSize: 2, MaxJobs: 1, DataDir: dir})
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		shutdown(t, m)
	})
	job := submitAs(t, m, smallSpec(), "job-1")
	waitJob(t, m, job.ID, func(s Status) bool { return s == StatusDone }, "done")

	var raw map[string]json.RawMessage
	getJSON(t, ts.URL+"/metrics", &raw)
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
