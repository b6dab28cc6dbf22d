package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/serve/journal"
	"enhancedbhpo/internal/serve/tracestore"
)

// segment is one file of a data directory's log: its path relative to the
// data directory and its bytes.
type segment struct {
	rel  string
	data []byte
}

// logSegments returns a data directory's log, segment by segment in
// sequence order.
func logSegments(t *testing.T, dataDir string) []segment {
	t.Helper()
	var out []segment
	for _, path := range traceSegments(t, dataDir) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(dataDir, path)
		out = append(out, segment{rel, data})
	}
	return out
}

// crashCut is a state a crash can leave of a log: the segments before seg
// whole, seg cut to its first n bytes — absent if n is 0, as a life that
// wrote nothing leaves no file — and none after it.
type crashCut struct{ seg, n int }

// crashCuts are the cuts of a log at every line boundary and once in the
// middle of every line, shortest first, ending with the whole log.
func crashCuts(segs []segment) []crashCut {
	var cuts []crashCut
	for i, s := range segs {
		for off := 0; off < len(s.data); {
			end := off + bytes.IndexByte(s.data[off:], '\n') + 1
			cuts = append(cuts, crashCut{i, off}, crashCut{i, (off + end) / 2})
			off = end
		}
	}
	last := len(segs) - 1
	return append(cuts, crashCut{last, len(segs[last].data)})
}

// write lays the cut out as a data directory.
func (c crashCut) write(t *testing.T, segs []segment, dataDir string) {
	t.Helper()
	if err := os.MkdirAll(TraceDir(dataDir), 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range segs[:c.seg+1] {
		data := s.data
		if i == c.seg {
			if c.n == 0 {
				break
			}
			data = data[:c.n]
		}
		writeFile(t, filepath.Join(dataDir, s.rel), data)
	}
}

// serveGet answers GET path from h without a listener, failing the test
// unless it is a 200.
func serveGet(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// surfaces is what a manager serves of one job: GET /jobs/{id}, its entry
// in GET /jobs and its /trace?events=1.
type surfaces struct {
	one, listed Snapshot
	events      []events.Event
	body, trace []byte // GET /jobs/{id} and /trace?events=1 as served
}

// serveAll reads every job's surfaces from m.
func serveAll(t *testing.T, m *Manager) map[string]surfaces {
	t.Helper()
	h := NewServer(m)
	var list []Snapshot
	if err := json.Unmarshal(serveGet(t, h, "/jobs"), &list); err != nil {
		t.Fatal(err)
	}
	out := map[string]surfaces{}
	for _, listed := range list {
		s := surfaces{listed: listed, body: serveGet(t, h, "/jobs/"+listed.ID)}
		s.trace = serveGet(t, h, "/jobs/"+listed.ID+"/trace?events=1")
		if json.Unmarshal(s.body, &s.one) != nil || json.Unmarshal(s.trace, &s.events) != nil {
			t.Fatalf("%s serves %s and %s", listed.ID, s.body, s.trace)
		}
		out[listed.ID] = s
	}
	return out
}

// checkServes fails unless every surface of a job says want — a terminal
// status and reason, or, for a job the boot runs again, live: queued or
// running, or cancelled by its own timeout, which may expire at any time.
// A terminal status is the last event's too; a live job's last event, if
// it has one, is not terminal.
func checkServes(t *testing.T, id string, s surfaces, want Status, reason Reason) {
	t.Helper()
	var last events.Event // a job with no event has none to contradict it
	if n := len(s.events); n > 0 {
		last = s.events[n-1]
	}
	if want == "" {
		live := func(st Status, r Reason) bool { return !terminalStatus(st) || r == ReasonTimeout }
		if !live(s.one.Status, s.one.Reason) || !live(s.listed.Status, s.listed.Reason) ||
			last.Terminal && Reason(last.Reason) != ReasonTimeout {
			t.Errorf("%s: GET /jobs/{id} %s, GET /jobs %s, last event %+v; want it live", id, s.one.Status, s.listed.Status, last)
		}
		return
	}
	if s.one.Status != want || s.one.Reason != reason || s.listed.Status != want || s.listed.Reason != reason ||
		Status(last.Status) != want || Reason(last.Reason) != reason || !last.Terminal {
		t.Errorf("%s: GET /jobs/{id} %s/%s, GET /jobs %s/%s, last event %s/%s (terminal %v); want %s/%s everywhere",
			id, s.one.Status, s.one.Reason, s.listed.Status, s.listed.Reason, last.Status, last.Reason, last.Terminal, want, reason)
	}
}

// heldConfig is the config a crash cut boots on: every evaluation is
// held until hold closes and abandoned when its job is cancelled (the
// pool's deadline path), so nothing the boot runs again trains, and
// Shutdown ends it at once.
func heldConfig(dataDir string, hold <-chan struct{}) Config {
	return Config{
		PoolSize: 1, MaxJobs: 1, MaxPending: 64, DataDir: dataDir, EvalTimeout: time.Hour,
		WrapEvaluator: func(_ string, inner hpo.Evaluator) hpo.Evaluator {
			return &stubEvaluator{inner: inner, hold: hold}
		},
	}
}

// settle waits until no more goroutines run than baseline, failing the
// test if some stay.
func settle(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the boot's shutdown, %d before it", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestEveryCrashPrefixBoots is the crash table of the one log. A data
// directory's log is appended to and never rewritten, so every state a
// crash can leave is a prefix of the bytes written. For each lifecycle
// path the table cuts the log it leaves — both segments on the restart
// paths — at every line boundary and once in the middle of every line,
// and boots each cut on a copy, re-running nothing that trains. At every
// cut:
//   - the boot succeeds, and serves every job journal.Replay of the cut
//     holds: terminal with Replay's status and reason, cancelled as
//     interrupted if it was running without a checkpoint, live otherwise —
//     alike on GET /jobs/{id}, GET /jobs and the last event of
//     /trace?events=1;
//   - Replay is monotone in the cut: a job once there stays, its
//     evaluations never fall, and once terminal its status, reason,
//     evaluations and best score are fixed;
//   - the boot rewrites no byte of the files it found, and once it is
//     shut down no goroutine of it is left, Replay reads every job as it
//     served it last, and a second boot — reading past the tear, which
//     now ends an earlier segment — serves every job, its trace
//     included, byte for byte as the first did, as tracestore.Read reads
//     the trace from the log.
//
// The whole log boots to the table the path's own manager served.
func TestEveryCrashPrefixBoots(t *testing.T) {
	for _, tc := range lifecyclePaths() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := lifecycleConfig(t)
			m, _ := tc.run(t, cfg)
			shutdown(t, m)
			segs := logSegments(t, cfg.DataDir) // before a restart path's first life is stopped
			served := serveAll(t, m)
			prev := map[string]journal.JobState{}
			base := t.TempDir()
			cuts := crashCuts(segs)
			for i, cut := range cuts {
				dir := filepath.Join(base, fmt.Sprint(i))
				cut.write(t, segs, dir)
				if !bootCut(t, dir, prev, served, i == len(cuts)-1) {
					t.Fatalf("at %s byte %d of %d", segs[cut.seg].rel, cut.n, len(segs[cut.seg].data))
				}
			}
		})
	}
}

// bootCut runs the table's checks on one cut laid out in dir, folding its
// Replay into prev; whole marks the whole log, which must boot to the
// table want. It reports whether every check held.
func bootCut(t *testing.T, dir string, prev map[string]journal.JobState, want map[string]surfaces, whole bool) bool {
	t.Helper()
	states, err := journal.Replay(dir)
	if err != nil {
		t.Errorf("Replay: %v", err)
		return false
	}
	outcome := func(st journal.JobState) string {
		best := "none"
		if st.BestScore != nil {
			best = fmt.Sprint(*st.BestScore)
		}
		return fmt.Sprintf("%s/%s after %d evaluations, best %s", st.Status, st.Reason, st.Evaluations, best)
	}
	for _, st := range states {
		was, ok := prev[st.ID]
		if ok && (st.Evaluations < was.Evaluations || was.Terminal() && outcome(st) != outcome(was)) {
			t.Errorf("%s: a longer cut replays %s after %s", st.ID, outcome(st), outcome(was))
		}
		prev[st.ID] = st
	}
	if len(prev) != len(states) {
		t.Errorf("a longer cut replays %d jobs, a shorter %d", len(states), len(prev))
	}
	files := readTree(t, dir)

	baseline := runtime.NumGoroutine()
	hold := make(chan struct{})
	m := bootJournaled(t, heldConfig(dir, hold))
	got := serveAll(t, m)
	if len(got) != len(states) {
		t.Errorf("the boot serves %d jobs, Replay holds %d", len(got), len(states))
	}
	for _, st := range states {
		var status Status
		var reason Reason
		switch {
		case st.Terminal():
			status, reason = Status(st.Status), Reason(st.Reason)
		case st.Status == string(StatusRunning) && len(st.Checkpoint) == 0:
			status, reason = StatusCancelled, ReasonInterrupted
		}
		checkServes(t, st.ID, got[st.ID], status, reason)
		if whole && !bytes.Equal(got[st.ID].body, want[st.ID].body) {
			t.Errorf("%s: the whole log boots to\n %s\nthe live manager served\n %s", st.ID, got[st.ID].body, want[st.ID].body)
		}
	}
	shutdown(t, m)
	close(hold)
	settle(t, baseline)
	for rel, data := range files {
		if now, err := os.ReadFile(filepath.Join(dir, rel)); err != nil || !bytes.Equal(now, data) {
			t.Errorf("the boot rewrote %s (%v)", rel, err)
		}
	}
	checkReplayReadsServed(t, m, dir)

	last := serveAll(t, m)
	again := bootJournaled(t, heldConfig(dir, nil))
	defer shutdown(t, again)
	second := serveAll(t, again)
	if len(second) != len(last) {
		t.Errorf("a second boot serves %d jobs, the first %d", len(second), len(last))
	}
	for id, s := range second {
		if !bytes.Equal(s.body, last[id].body) || !bytes.Equal(s.trace, last[id].trace) {
			t.Errorf("%s: a second boot serves\n %s %s\nthe first served\n %s %s", id, s.body, s.trace, last[id].body, last[id].trace)
		}
		read, err := tracestore.Read(TraceDir(dir), id)
		a, _ := json.Marshal(read)
		b, _ := json.Marshal(s.events)
		if err != nil || !bytes.Equal(a, b) {
			t.Errorf("%s: tracestore.Read reads %d events (%v), the second boot serves %d", id, len(read), err, len(s.events))
		}
	}
	return !t.Failed()
}
