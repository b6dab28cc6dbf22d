package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
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

// wedgeEvaluator stalls its first evaluation for sleep, then behaves
// normally — the shape of a trial that wedges on a pathological config.
type wedgeEvaluator struct {
	inner hpo.Evaluator
	sleep time.Duration
	calls atomic.Int64
}

func (w *wedgeEvaluator) FullBudget() int { return w.inner.FullBudget() }

func (w *wedgeEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	if w.calls.Add(1) == 1 {
		time.Sleep(w.sleep)
	}
	return w.inner.Evaluate(cfg, budget, r)
}

// TestEvalDeadlineAbandonsWedgedTrial: a trial that wedges far past
// -eval-timeout must be abandoned — slot released, trial charged to the
// failure budget — and the job must still finish long before the wedge
// would have cleared on its own.
func TestEvalDeadlineAbandonsWedgedTrial(t *testing.T) {
	const wedge = 30 * time.Second
	m := NewManager(Config{
		PoolSize:      2,
		MaxJobs:       1,
		EvalTimeout:   150 * time.Millisecond,
		FailureBudget: 5,
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			return &wedgeEvaluator{inner: inner, sleep: wedge}
		},
	})
	t.Cleanup(func() { shutdown(t, m) })
	start := time.Now()
	job := submitAs(t, m, smallSpec(), "job-1")
	waitJob(t, m, job.ID, func(s Status) bool { return s == StatusDone }, "done")
	elapsed := time.Since(start)
	if elapsed >= wedge {
		t.Fatalf("job took %s: it waited out the wedged evaluation instead of abandoning it", elapsed)
	}
	snap := job.Snapshot()
	if snap.Failures != 1 {
		t.Errorf("failures = %d, want exactly 1 (deadline is definitive, no retry)", snap.Failures)
	}
	if got := m.Metrics().DeadlineExceeded; got != 1 {
		t.Errorf("DeadlineExceeded = %d, want 1", got)
	}
	// The abandoned slot was handed back: the job finished, which needed
	// every remaining trial to get through the same slots.
	if got := m.Metrics().PoolInUse; got != 0 {
		t.Errorf("PoolInUse = %d after job done, want 0", got)
	}
}

// TestAdmissionControl429: once MaxPending jobs are queued, POST /jobs
// sheds with 429 + a positive Retry-After, /healthz turns "overloaded",
// and freeing a pending slot (cancelling a queued job) re-opens admission.
func TestAdmissionControl429(t *testing.T) {
	gate := make(chan struct{})
	ts, m := newTestServer(t, Config{
		PoolSize:   1,
		MaxJobs:    1,
		MaxPending: 2,
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			return &gateEvaluator{inner: inner, gate: gate, entered: make(chan struct{})}
		},
	})
	defer close(gate)

	// Job 1 wedges in its first (gated) evaluation, occupying the single
	// job slot; running means it no longer counts against the queue.
	j1 := postJob(t, ts.URL, smallSpec())
	pollUntil(t, ts.URL, j1.ID, func(s Snapshot) bool { return s.Status == StatusRunning }, "running")

	j2 := postJob(t, ts.URL, smallSpec())
	j3 := postJob(t, ts.URL, smallSpec())
	if got := m.PendingDepth(); got != 2 {
		t.Fatalf("PendingDepth = %d with 2 queued jobs, want 2", got)
	}

	// Health flips to overloaded (alive, serving reads, shedding writes).
	var hb healthBody
	getJSON(t, ts.URL+"/healthz", &hb)
	if hb.Status != "overloaded" || hb.Pending != 2 || hb.MaxPending != 2 {
		t.Fatalf("healthz = %+v, want overloaded with pending 2/2", hb)
	}

	// The queue is full: the next submission is shed.
	resp := postRaw(t, ts.URL, "", smallSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST over limit: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer second count", ra)
	}
	var ob overloadBody
	if err := json.NewDecoder(resp.Body).Decode(&ob); err != nil {
		t.Fatal(err)
	}
	if ob.RetryAfterSec != secs {
		t.Fatalf("body retry_after_sec %d != header %d", ob.RetryAfterSec, secs)
	}
	if ob.Error == "" {
		t.Fatal("429 body has no error message")
	}
	if got := m.Metrics().ShedRequests; got != 1 {
		t.Fatalf("ShedRequests = %d, want 1", got)
	}
	if _, ok := m.Get("job-4"); ok {
		t.Fatal("shed submission was registered in the job table")
	}

	// Cancelling a queued job frees its pending slot and re-opens
	// admission; health goes back to ok.
	httpDo(t, http.MethodDelete, ts.URL+"/jobs/"+j2.ID, "")
	deadline := time.Now().Add(30 * time.Second)
	for m.PendingDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("PendingDepth stuck at %d after cancelling a queued job", m.PendingDepth())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m.Overloaded() {
		t.Fatal("still overloaded after a pending slot freed up")
	}
	j5 := postJob(t, ts.URL, smallSpec())
	if j5.Status != StatusQueued {
		t.Fatalf("re-opened admission returned status %s", j5.Status)
	}
	_ = j3
}

// TestChaosOverload is the chaos harness: sustained over-capacity HTTP
// submissions against a journaled manager with injected evaluation
// panics (every 7th job) and wedged evaluations (every 5th job, abandoned
// by the -eval-timeout watchdog), while the log rotates online and
// idle scopes are TTL-evicted. Throughout, under -race:
//
//   - the service never deadlocks and never exceeds MaxPending,
//   - every shed submission gets 429 with a positive Retry-After,
//   - the log only ever grows: every segment read mid-storm is a byte
//     prefix of what it finally holds, and a sealed segment shows the
//     log rotated,
//
// and after a kill -9 equivalent (a second manager recovers the same
// data dir while the first still holds a job mid-evaluation) the replay
// is consistent: no accepted job is lost, terminal outcomes match, and
// the mid-run job comes back cancelled/interrupted.
//
// The storm runs ~2s by default; `make race` sets BHPOD_CHAOS_SECONDS=30.
func TestChaosOverload(t *testing.T) {
	secs := 2.0
	if s := os.Getenv("BHPOD_CHAOS_SECONDS"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			secs = v
		}
	}
	const (
		poolSize = 2
		maxPend  = 8
		maxBytes = int64(4 << 10) // force the log's rotations under the storm
	)
	evalTmo := 250 * time.Millisecond
	dir := t.TempDir()

	freezeGate := make(chan struct{})
	frozenEntered := make(chan struct{})
	var freezeArm atomic.Bool
	var openGate sync.Once
	releaseFrozen := func() { openGate.Do(func() { close(freezeGate) }) }
	t.Cleanup(releaseFrozen)

	cfg := Config{
		PoolSize:      poolSize,
		MaxJobs:       2,
		MaxPending:    maxPend,
		EvalTimeout:   evalTmo,
		FailureBudget: 50,
		ScopeTTL:      300 * time.Millisecond,
		DataDir:       dir,
		TraceMaxBytes: maxBytes,
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			if freezeArm.CompareAndSwap(true, false) {
				return &gateEvaluator{inner: inner, gate: freezeGate, entered: frozenEntered}
			}
			n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
			switch {
			case n%7 == 0: // injected panic on the first evaluation
				return &flakyEvaluator{inner: inner, failFirst: 1, panics: true}
			case n%5 == 0: // first evaluation wedges well past the deadline
				return &wedgeEvaluator{inner: inner, sleep: 4 * evalTmo}
			}
			return inner
		},
	}
	m1 := bootJournaled(t, cfg)
	ts := httptest.NewServer(NewServer(m1))
	t.Cleanup(func() {
		ts.Close()
		releaseFrozen()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := m1.Shutdown(ctx); err != nil {
			t.Errorf("m1 shutdown: %v", err)
		}
	})

	// The storm: 3 submitters racing 2 pool slots and an 8-deep queue.
	stop := make(chan struct{})
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted = map[string]struct{}{}
		shedN    atomic.Int64
		seedCtr  atomic.Uint64
		badRetry atomic.Bool
		pendOver atomic.Bool
		samples  = map[string][]byte{} // log segment → its last read, the sampler's until it stops
	)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := ts.Client()
			for {
				select {
				case <-stop:
					return
				default:
				}
				spec := smallSpec()
				spec.Seed = seedCtr.Add(1)
				body, err := json.Marshal(spec)
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := client.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusAccepted:
					var snap Snapshot
					if err := json.NewDecoder(resp.Body).Decode(&snap); err == nil {
						mu.Lock()
						accepted[snap.ID] = struct{}{}
						mu.Unlock()
					}
				case http.StatusTooManyRequests:
					shedN.Add(1)
					// Acceptance: every shed submission carries a positive
					// Retry-After, header and body agreeing.
					ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
					var ob overloadBody
					if derr := json.NewDecoder(resp.Body).Decode(&ob); err != nil || ra < 1 || derr != nil || ob.RetryAfterSec < 1 {
						if badRetry.CompareAndSwap(false, true) {
							t.Errorf("429 without a positive Retry-After (header %q, body %+v)",
								resp.Header.Get("Retry-After"), ob)
						}
					}
				default:
					t.Errorf("unexpected POST /jobs status %d", resp.StatusCode)
				}
				resp.Body.Close()
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// Watchdog sampler: queue depth stays bounded at all times, not just at
	// the end, and every segment of the log only grows.
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if d := m1.PendingDepth(); d > maxPend && pendOver.CompareAndSwap(false, true) {
					t.Errorf("pending depth %d exceeded max %d", d, maxPend)
				}
				sampleJournal(t, dir, samples)
			}
		}
	}()

	// Run the storm for the configured duration, extending briefly if the
	// interesting events (sheds, wedge abandonments, enough accepted jobs
	// to hit the every-5th/7th fault schedule) have not all fired yet.
	time.Sleep(time.Duration(secs * float64(time.Second)))
	extend := time.Now().Add(60 * time.Second)
	for time.Now().Before(extend) {
		mu.Lock()
		n := len(accepted)
		mu.Unlock()
		if n >= 15 && shedN.Load() >= 1 && m1.Metrics().DeadlineExceeded >= 1 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	<-samplerDone

	// Everything accepted must settle — no deadlock, no stuck job.
	drainBy := time.Now().Add(120 * time.Second)
	for {
		mt := m1.Metrics()
		if mt.JobsQueued == 0 && mt.JobsRunning == 0 && mt.PendingDepth == 0 {
			break
		}
		if time.Now().After(drainBy) {
			t.Fatalf("jobs never drained: %d queued, %d running, %d pending",
				mt.JobsQueued, mt.JobsRunning, mt.PendingDepth)
		}
		time.Sleep(20 * time.Millisecond)
	}
	mt := m1.Metrics()
	mu.Lock()
	nAccepted := len(accepted)
	mu.Unlock()
	if nAccepted == 0 {
		t.Fatal("storm accepted no jobs")
	}
	if shedN.Load() == 0 {
		t.Error("storm never shed a submission: admission control untested")
	}
	if mt.ShedRequests != shedN.Load() {
		t.Errorf("ShedRequests = %d, submitters saw %d 429s", mt.ShedRequests, shedN.Load())
	}
	if mt.DeadlineExceeded == 0 {
		t.Error("no evaluation was ever abandoned: deadline watchdog untested")
	}
	if mt.TrialFailures == 0 {
		t.Error("no trial failure recorded despite injected panics")
	}
	if mt.JobsDone == 0 {
		t.Error("no job finished successfully under chaos")
	}
	if mt.JournalErrors != 0 {
		t.Errorf("journal recorded %d errors", mt.JournalErrors)
	}
	// A rotation leaves its sealed segment; one on the storm's last line
	// leaves no segment after it.
	segs := traceSegments(t, dir)
	rotated := false
	for _, path := range segs {
		if info, err := os.Stat(path); err == nil && info.Size() >= maxBytes {
			rotated = true
		}
	}
	if !rotated {
		t.Errorf("no log segment among %d reached %d bytes: the log never rotated", len(segs), maxBytes)
	}

	// Kill phase: arm the gate, submit one more job, and once it is wedged
	// mid-evaluation abandon m1 without shutdown — no drain, no terminal
	// record — and recover the same directory with a second manager. A dead
	// process writes nothing more, so the kill closes m1's log: the wedged
	// job's deadline watchdog and eventual result find it closed instead
	// of appending beside m2. (What kill -9 adds to that, losing unsynced
	// page-cache data, an in-process test cannot simulate either way.)
	freezeArm.Store(true)
	frozen, err := m1.SubmitToken(smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-frozenEntered:
	case <-time.After(60 * time.Second):
		t.Fatal("frozen job never reached its evaluation")
	}
	m1.traces.Close()

	cfg2 := cfg
	cfg2.WrapEvaluator = nil
	m2, err := NewManagerFromJournal(cfg2)
	if err != nil {
		t.Fatalf("post-kill replay: %v", err)
	}
	t.Cleanup(func() { shutdown(t, m2) })

	if got, want := len(m2.Jobs()), nAccepted+1; got != want {
		t.Errorf("replay rebuilt %d jobs, want %d (%d accepted + the frozen one)", got, want, nAccepted)
	}
	mu.Lock()
	for id := range accepted {
		j2, ok := m2.Get(id)
		if !ok {
			mu.Unlock()
			t.Fatalf("accepted job %s lost across the kill", id)
		}
		st := j2.Status()
		if !terminal(st) {
			t.Errorf("job %s replayed as %s, want a terminal status", id, st)
		}
		if j1, ok := m1.Get(id); ok {
			if got := j1.Status(); got != st {
				t.Errorf("job %s: m1 settled as %s but replay says %s", id, got, st)
			}
		}
		if st == StatusDone {
			if snap := j2.Snapshot(); snap.BestScore == nil || snap.TestScore == nil {
				t.Errorf("done job %s replayed without scores", id)
			}
		}
	}
	mu.Unlock()
	fj, ok := m2.Get(frozen.ID)
	if !ok {
		t.Fatalf("frozen job %s missing after replay", frozen.ID)
	}
	fsnap := fj.Snapshot()
	if fsnap.Status != StatusCancelled || fsnap.Reason != ReasonInterrupted {
		t.Errorf("frozen job replayed as %s/%s, want cancelled/interrupted", fsnap.Status, fsnap.Reason)
	}

	// Trace integrity: a mid-storm kill must never corrupt the trace log.
	// Every job's trace on disk still parses (a torn final line is
	// tolerated by the reader; a torn middle is not), its event sequence
	// numbers are strictly increasing across the rotations that ran
	// under the storm, and every job the journal replayed as done still
	// has its complete anytime curve and terminal event on disk.
	if mt.TraceStoreErrors != 0 {
		t.Errorf("trace store recorded %d errors under the storm", mt.TraceStoreErrors)
	}
	traceDir := TraceDir(dir)
	mu.Lock()
	traceIDs := make([]string, 0, len(accepted)+1)
	for id := range accepted {
		traceIDs = append(traceIDs, id)
	}
	mu.Unlock()
	traceIDs = append(traceIDs, frozen.ID)
	for _, id := range traceIDs {
		evs, err := tracestore.Read(traceDir, id)
		if err != nil {
			t.Errorf("trace for %s unreadable after kill: %v", id, err)
			continue
		}
		var lastSeq uint64
		ordered := true
		for i, ev := range evs {
			if ev.Seq <= lastSeq {
				t.Errorf("trace for %s: seq %d at position %d does not increase past %d", id, ev.Seq, i, lastSeq)
				ordered = false
				break
			}
			lastSeq = ev.Seq
		}
		j2, ok := m2.Get(id)
		if !ok || !ordered || j2.Status() != StatusDone {
			continue
		}
		var curve []trace.Point
		terminalSeen := false
		for _, ev := range evs {
			if ev.Type == events.TypeCurvePoint && ev.Point != nil {
				curve = append(curve, *ev.Point)
			}
			terminalSeen = terminalSeen || ev.Terminal
		}
		if !terminalSeen {
			t.Errorf("done job %s: trace lost its terminal event", id)
		}
		snap := j2.Snapshot()
		if len(curve) != len(snap.Curve) {
			t.Errorf("done job %s: trace holds %d curve points, replayed snapshot %d", id, len(curve), len(snap.Curve))
			continue
		}
		for i := range curve {
			if curve[i] != snap.Curve[i] {
				t.Errorf("done job %s: curve point %d differs across the kill: %+v vs %+v", id, i, curve[i], snap.Curve[i])
				break
			}
		}
	}

	// Append-only across the kill and the recovery too: every read the
	// storm took of a log segment is where that segment still begins.
	for path, sample := range samples {
		if data, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(data, sample) {
			t.Errorf("%s, read at %d bytes mid-storm, does not begin with that read now (%v)", filepath.Base(path), len(sample), err)
		}
	}
}

// sampleJournal reads every segment of the log in dir whose size moved
// since its last read in samples and fails the test unless the new read
// extends that one: nothing rewrites, truncates or deletes a segment.
func sampleJournal(t *testing.T, dir string, samples map[string][]byte) {
	paths, _ := filepath.Glob(filepath.Join(TraceDir(dir), "trace-*.jsonl"))
	for _, path := range paths {
		prev, seen := samples[path]
		if info, err := os.Stat(path); err != nil || seen && info.Size() == int64(len(prev)) {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if !bytes.HasPrefix(data, prev) {
			t.Errorf("%s was rewritten: a read at %d bytes does not extend the one at %d", filepath.Base(path), len(data), len(prev))
		}
		samples[path] = data
	}
}
