package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
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
	"enhancedbhpo/internal/serve/journal"
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
		EvalAttempts:  2,
		RetryBackoff:  time.Millisecond,
		FailureBudget: 5,
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			return &wedgeEvaluator{inner: inner, sleep: wedge}
		},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	start := time.Now()
	job, err := m.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
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

// postRaw submits a spec and returns the raw response (caller closes).
func postRaw(t *testing.T, base string, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
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
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb healthBody
	if err := jsonDecode(resp, &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Status != "overloaded" || hb.Pending != 2 || hb.MaxPending != 2 {
		t.Fatalf("healthz = %+v, want overloaded with pending 2/2", hb)
	}

	// The queue is full: the next submission is shed.
	resp = postRaw(t, ts.URL, smallSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		resp.Body.Close()
		t.Fatalf("POST over limit: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer second count", ra)
	}
	var ob overloadBody
	if err := jsonDecode(resp, &ob); err != nil {
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
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+j2.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
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
// by the -eval-timeout watchdog), while the journal rotates online and
// idle scopes are TTL-evicted. Throughout, under -race:
//
//   - the service never deadlocks and never exceeds MaxPending,
//   - every shed submission gets 429 with a positive Retry-After,
//   - the journal directory stays bounded by the compacted live state
//     plus two segment generations,
//
// and after a kill -9 equivalent (a second manager recovers the same
// data dir while the first still holds a job mid-evaluation) the replay
// is consistent: no accepted job is lost, terminal outcomes match, and
// the mid-run job comes back cancelled/interrupted.
//
// The storm runs ~2s by default; `make chaos` sets BHPOD_CHAOS_SECONDS=30.
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
		maxBytes = int64(8 << 10)
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
		PoolSize:        poolSize,
		MaxJobs:         2,
		MaxPending:      maxPend,
		EvalTimeout:     evalTmo,
		EvalAttempts:    1,
		RetryBackoff:    time.Millisecond,
		FailureBudget:   50,
		ScopeTTL:        300 * time.Millisecond,
		DataDir:         dir,
		JournalMaxBytes: maxBytes,
		TraceMaxBytes:   4 << 10, // force trace rotations under the storm
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			if freezeArm.CompareAndSwap(true, false) {
				return &gateEvaluator{inner: inner, gate: freezeGate, entered: frozenEntered}
			}
			var n int
			fmt.Sscanf(id, "job-%d", &n)
			switch {
			case n%7 == 0: // injected panic on the first evaluation
				return &flakyEvaluator{inner: inner, failFirst: 1, panics: true}
			case n%5 == 0: // first evaluation wedges well past the deadline
				return &wedgeEvaluator{inner: inner, sleep: 4 * evalTmo}
			}
			return inner
		},
	}
	m1, err := NewManagerFromJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
		wg        sync.WaitGroup
		mu        sync.Mutex
		accepted  = map[string]struct{}{}
		shedN     atomic.Int64
		seedCtr   atomic.Uint64
		badRetry  atomic.Bool
		pendOver  atomic.Bool
		maxJBytes atomic.Int64
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

	// Watchdog sampler: queue depth and journal size stay bounded at all
	// times, not just at the end.
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		midFold := 0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if d := m1.PendingDepth(); d > maxPend && pendOver.CompareAndSwap(false, true) {
					t.Errorf("pending depth %d exceeded max %d", d, maxPend)
				}
				b, bases := journalDirSample(dir)
				if bases > 1 {
					// Mid-fold: journal.foldDir renames the new base into
					// place before it removes the one it supersedes, and
					// this sample landed in between. Re-take it on the next
					// tick; a superseded base still there 25 ticks (≥ 500
					// ms) later was leaked, not caught mid-removal.
					if midFold++; midFold == 25 {
						t.Errorf("journal dir held %d base files for %d consecutive samples: a superseded base was never removed", bases, midFold)
					}
					continue
				}
				midFold = 0
				if b > maxJBytes.Load() {
					maxJBytes.Store(b)
				}
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
	if seq := maxSegmentSeq(t, dir); seq < 2 {
		t.Errorf("active segment still at sequence %d: journal never rotated", seq)
	}

	// Kill phase: arm the gate, submit one more job, and once it is wedged
	// mid-evaluation abandon m1 without shutdown — no drain, no terminal
	// record — and recover the same directory with a second manager. A dead
	// process writes nothing more, so the kill closes m1's trace store and
	// journal: the wedged job's deadline watchdog and eventual result find
	// them closed instead of appending beside m2. (What kill -9 adds to
	// that, losing unsynced page-cache data, an in-process test cannot
	// simulate either way.)
	freezeArm.Store(true)
	frozen, err := m1.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-frozenEntered:
	case <-time.After(60 * time.Second):
		t.Fatal("frozen job never reached its evaluation")
	}
	time.Sleep(50 * time.Millisecond) // let any fold spawned by its submit records land
	m1.traces.Close()
	m1.journal.Close()

	cfg2 := cfg
	cfg2.WrapEvaluator = nil
	m2, err := NewManagerFromJournal(cfg2)
	if err != nil {
		t.Fatalf("post-kill replay: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m2.Shutdown(ctx); err != nil {
			t.Errorf("m2 shutdown: %v", err)
		}
	})

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

	// Journal bound: the directory may transiently hold the compacted
	// state plus one sealed generation plus the active segment — never
	// more. The post-recovery compacted size is an upper bound on the live
	// state at any earlier point (jobs only accumulate).
	final := journal.DirStats(dir)
	slack := int64(16 << 10)
	if peak, bound := maxJBytes.Load(), final.Bytes+2*maxBytes+slack; peak > bound {
		t.Errorf("journal dir peaked at %d bytes, bound %d (compacted %d + 2×%d + %d slack)",
			peak, bound, final.Bytes, maxBytes, slack)
	}
}

// journalDirSample sizes the journal files in dir the way
// journal.DirStats does and, from the same directory listing, counts the
// base files among them.
func journalDirSample(dir string) (size int64, bases int) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		name := e.Name()
		isBase := strings.HasPrefix(name, "base-")
		if !strings.HasSuffix(name, ".jsonl") || !isBase && !strings.HasPrefix(name, "journal-") {
			continue // base-N.jsonl.tmp, traces/, anything else
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		size += info.Size()
		if isBase {
			bases++
		}
	}
	return size, bases
}

// maxSegmentSeq reports the highest journal segment sequence in dir.
func maxSegmentSeq(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	max := 0
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "journal-%06d.jsonl", &n); err == nil && n > max {
			max = n
		}
	}
	return max
}
