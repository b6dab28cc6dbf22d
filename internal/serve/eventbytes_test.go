package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/serve/tracestore"
	"enhancedbhpo/internal/trace"
)

// sseReference is the event stream of evs as the service has always
// framed it: the sequence number, the type and json.Marshal of the event.
func sseReference(t *testing.T, evs []events.Event) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, ev := range evs {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	}
	return b.Bytes()
}

// failFirst fails a job's first n evaluations with msg, then evaluates.
type failFirst struct {
	inner hpo.Evaluator
	left  atomic.Int64
	msg   string
}

func (f *failFirst) FullBudget() int { return f.inner.FullBudget() }

func (f *failFirst) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	if f.left.Add(-1) >= 0 {
		return nil, errors.New(f.msg)
	}
	return f.inner.Evaluate(cfg, budget, r)
}

// TestEventBytesMatchReference: a finished job's event stream and its
// event lines in the log are, byte for byte, json.Marshal of each event
// framed as the service has always framed it — for a failed status whose
// error holds HTML-significant bytes, a line separator and invalid UTF-8
// too — and so is the stream of the same job after a restart, whose
// events are read back from the log.
func TestEventBytesMatchReference(t *testing.T) {
	dir := t.TempDir()
	const msg = "bad <input> & \u2028 \xff\xfe"
	cfg := Config{PoolSize: 1, MaxJobs: 1, DataDir: dir, FailureBudget: 1,
		WrapEvaluator: func(_ string, inner hpo.Evaluator) hpo.Evaluator {
			f := &failFirst{inner: inner, msg: msg}
			f.left.Store(2)
			return f
		}}
	m := bootJournaled(t, cfg)
	ts := httptest.NewServer(NewServer(m))
	job := submitAs(t, m, smallSpec(), "job-1")
	if got := waitJob(t, m, job.ID, terminal, "terminal").Status(); got != StatusFailed {
		t.Fatalf("job ended %s, want failed", got)
	}
	evs := m.hub.Since(job.ID, 0)
	if last := evs[len(evs)-1]; !last.Terminal || !strings.Contains(last.Error, "<input>") {
		t.Fatalf("the terminal event %+v does not carry the evaluator's error", last)
	}
	want := sseReference(t, evs)
	if got := getBody(t, ts.URL+"/jobs/job-1/events"); !bytes.Equal(got, want) {
		t.Fatalf("the event stream is\n%s\nwant\n%s", got, want)
	}
	if got := getBody(t, ts.URL+"/jobs/job-1/events?after=3"); !bytes.Equal(got, sseReference(t, evs[3:])) {
		t.Fatalf("the stream resumed after seq 3 is\n%s", got)
	}
	ts.Close()
	shutdown(t, m)

	logged, err := tracestore.ReadAll(TraceDir(dir), func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	lines := logged[job.ID]
	if len(lines) != len(evs) {
		t.Fatalf("the log holds %d event lines of the job, the hub %d events", len(lines), len(evs))
	}
	for i, ev := range evs {
		if data, _ := json.Marshal(ev); !bytes.Equal(lines[i], data) {
			t.Fatalf("log line %d is\n%s\nwant\n%s", i, lines[i], data)
		}
	}

	cfg.WrapEvaluator = nil
	m2 := bootJournaled(t, cfg)
	defer shutdown(t, m2)
	ts2 := httptest.NewServer(NewServer(m2))
	defer ts2.Close()
	got := getBody(t, ts2.URL+"/jobs/job-1/events")
	if want := sseReference(t, m2.hub.Since(job.ID, 0)); !bytes.Equal(got, want) {
		t.Fatalf("after a restart the event stream is\n%s\nwant\n%s", got, want)
	}
}

// TestUnencodableEventEndsStream: an event that does not encode — a NaN
// score — is still numbered, retained and published; the log refuses it,
// counted in trace_store_errors, and a stream that reaches it ends there,
// after every event before it.
func TestUnencodableEventEndsStream(t *testing.T) {
	hold, entered := make(chan struct{}), make(chan struct{})
	m := bootJournaled(t, Config{PoolSize: 1, MaxJobs: 1, DataDir: t.TempDir(),
		WrapEvaluator: func(_ string, inner hpo.Evaluator) hpo.Evaluator {
			return &stubEvaluator{inner: inner, free: 2, hold: hold, entered: entered}
		}})
	defer shutdown(t, m)
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	job := submitAs(t, m, smallSpec(), "job-1")
	<-entered
	before := m.hub.LastSeq(job.ID)
	stream := openSSE(t, ts.URL, job.ID, 0)
	defer stream.close()
	for seq := uint64(1); seq <= before; seq++ {
		if ev, ok := stream.next(t); !ok || ev.Seq != seq {
			t.Fatalf("the stream's event %d is %+v (ok %v)", seq, ev, ok)
		}
	}
	bad := m.hub.Publish(job.ID, events.Event{Type: events.TypeCurvePoint, Time: time.Now(),
		Point: &trace.Point{Evaluations: 2, BestScore: math.NaN()}})
	if bad.Seq != before+1 {
		t.Fatalf("the NaN event got seq %d, want %d", bad.Seq, before+1)
	}
	if ev, ok := stream.next(t); ok {
		t.Fatalf("the stream went on past the NaN event with %+v", ev)
	}
	if got := m.Metrics().TraceStoreErrors; got != 1 {
		t.Fatalf("trace_store_errors = %d, want 1", got)
	}
	if evs := m.hub.Since(job.ID, before); len(evs) != 1 || !math.IsNaN(evs[0].Point.BestScore) {
		t.Fatalf("the hub holds %+v after seq %d, want the NaN event", evs, before)
	}
	close(hold)
	waitJob(t, m, job.ID, terminal, "terminal")
}
