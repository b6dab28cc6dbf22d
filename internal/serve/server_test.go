package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/trace"
)

// smallSpec is a job small enough to finish in well under a second.
func smallSpec() JobSpec {
	return JobSpec{
		Dataset:    "australian",
		Scale:      0.06,
		Method:     "sha",
		NumHPs:     2,
		MaxConfigs: 6,
		Iters:      2,
		Seed:       3,
	}
}

// bigSpec is a job slow enough to be caught and cancelled mid-run.
func bigSpec() JobSpec {
	return JobSpec{
		Dataset:    "australian",
		Scale:      0.5,
		Method:     "asha",
		NumHPs:     4,
		MaxConfigs: 27,
		Iters:      60,
		Seed:       5,
	}
}

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		shutdown(t, m)
	})
	return ts, m
}

// postRaw submits a spec, under an X-Submit-Token if token is set, and
// returns the raw response (caller closes).
func postRaw(t *testing.T, base, token string, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("X-Submit-Token", token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// postJob submits a spec and returns the accepted job's snapshot.
func postJob(t *testing.T, base string, spec JobSpec) Snapshot {
	t.Helper()
	return postJobToken(t, base, "", spec)
}

// postJobToken submits a spec under token and returns the accepted job's
// snapshot.
func postJobToken(t *testing.T, base, token string, spec JobSpec) Snapshot {
	t.Helper()
	resp := postRaw(t, base, token, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func getJob(t *testing.T, base, id string) Snapshot {
	t.Helper()
	var snap Snapshot
	getJSON(t, base+"/jobs/"+id, &snap)
	return snap
}

func pollUntil(t *testing.T, base, id string, want func(Snapshot) bool, desc string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		snap := getJob(t, base, id)
		if want(snap) {
			return snap
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (last: %s)", id, desc, getJob(t, base, id).Status)
	panic("unreachable")
}

func terminal(s Status) bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// evalWatch counts one job's evaluations where the pool hands them to
// the job (WrapEvaluator): how many are in flight, and how many start
// after the test has marked the cancel.
type evalWatch struct {
	inner hpo.Evaluator

	mu        sync.Mutex
	inFlight  int
	cancelled bool
	late      int // evaluations started after markCancel
}

func (w *evalWatch) FullBudget() int { return w.inner.FullBudget() }

func (w *evalWatch) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	w.mu.Lock()
	if w.cancelled {
		w.late++
	}
	w.inFlight++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.inFlight--
		w.mu.Unlock()
	}()
	return w.inner.Evaluate(cfg, budget, r)
}

// markCancel records that the job has been cancelled and returns how many
// of its evaluations are in flight at that point.
func (w *evalWatch) markCancel() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cancelled = true
	return w.inFlight
}

// startedLate returns how many evaluations started after markCancel.
func (w *evalWatch) startedLate() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.late
}

// TestServiceEndToEnd is the acceptance scenario: submit a small job over
// HTTP, poll to completion, check the anytime curve; cancel a big job
// mid-run and verify it stops within one evaluation per pool slot.
func TestServiceEndToEnd(t *testing.T) {
	const pool = 2
	var watches sync.Map // job ID → *evalWatch
	ts, _ := newTestServer(t, Config{PoolSize: pool, MaxJobs: 2,
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			w := &evalWatch{inner: inner}
			watches.Store(id, w)
			return w
		}})

	// Health first.
	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("healthz status %q", health.Status)
	}

	// 1. Small job runs to completion with a non-empty incumbent curve.
	sub := postJob(t, ts.URL, smallSpec())
	if sub.Status != StatusQueued && sub.Status != StatusRunning {
		t.Fatalf("fresh job status %s", sub.Status)
	}
	done := pollUntil(t, ts.URL, sub.ID, func(s Snapshot) bool { return terminal(s.Status) }, "a terminal state")
	if done.Status != StatusDone {
		t.Fatalf("small job ended %s (error %q)", done.Status, done.Error)
	}
	if done.Evaluations == 0 || len(done.Curve) != done.Evaluations {
		t.Fatalf("done job has %d curve points for %d evaluations", len(done.Curve), done.Evaluations)
	}
	last := done.Curve[len(done.Curve)-1]
	if last.BestScore <= 0 {
		t.Fatalf("incumbent score %v not positive", last.BestScore)
	}
	if done.BestConfig == nil || done.BestScore == nil {
		t.Fatal("done job missing best config/score")
	}
	if done.TestScore == nil {
		t.Fatal("done job missing held-out test score")
	}

	// 2. Big job: observe it mid-run with a live curve, then cancel.
	big := postJob(t, ts.URL, bigSpec())
	mid := pollUntil(t, ts.URL, big.ID, func(s Snapshot) bool {
		return s.Status == StatusRunning && s.Evaluations >= 1
	}, "running with a live curve")
	if len(mid.Curve) == 0 {
		t.Fatal("running job serves no live anytime curve")
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+big.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The DELETE answers after the cancel has fired: from here on the
	// pool hands the job no slot, and only the evaluations that already
	// hold one, at most one per pool slot, may still run. They are
	// counted where the pool hands them to the job, not in the job's
	// snapshot: asha buffers finished trials and emits them in serial
	// order, so trials that finished before the cancel can still be
	// observed after it. An evaluation that took its slot before the
	// cancel may reach the wrapper after markCancel, so it counts as
	// late; in flight and late together stay within the pool.
	w, _ := watches.Load(big.ID)
	watch := w.(*evalWatch)
	inFlight := watch.markCancel()
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", dresp.StatusCode)
	}
	stopped := pollUntil(t, ts.URL, big.ID, func(s Snapshot) bool { return terminal(s.Status) }, "a terminal state")
	if stopped.Status != StatusCancelled {
		t.Fatalf("cancelled job ended %s (error %q)", stopped.Status, stopped.Error)
	}
	if stopped.Reason != ReasonUserCancel {
		t.Fatalf("cancelled job reason %q, want user_cancel", stopped.Reason)
	}
	if late := watch.startedLate(); inFlight+late > pool {
		t.Fatalf("%d evaluations in flight at the cancel and %d started after it (pool %d)", inFlight, late, pool)
	}
	if stopped.Evaluations < mid.Evaluations {
		t.Fatalf("evaluations went backwards: %d -> %d", mid.Evaluations, stopped.Evaluations)
	}

	// Cancelling a finished job is idempotent: the settled state comes
	// back with 200 instead of a conflict.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+big.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var settled Snapshot
	if err := json.NewDecoder(dresp.Body).Decode(&settled); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("second DELETE: status %d, want 200", dresp.StatusCode)
	}
	if settled.Status != StatusCancelled || settled.Reason != ReasonUserCancel {
		t.Fatalf("second DELETE snapshot: status %s reason %q", settled.Status, settled.Reason)
	}

	// 3. Metrics add up.
	var met Metrics
	getJSON(t, ts.URL+"/metrics", &met)
	if met.JobsDone < 1 || met.JobsCancelled < 1 {
		t.Fatalf("metrics jobs: %+v", met)
	}
	if met.Evaluations == 0 || met.PoolSize != pool {
		t.Fatalf("metrics pool/evals: %+v", met)
	}
	if met.CacheScopes != 2 { // small and big specs differ
		t.Fatalf("cache scopes %d, want 2", met.CacheScopes)
	}

	// 4. Listing shows both jobs in submission order, without curves.
	var list []Snapshot
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list) != 2 || list[0].ID != sub.ID || list[1].ID != big.ID {
		t.Fatalf("listing: %+v", list)
	}
}

// TestCacheReuseAcrossJobs submits the same spec twice: the second run
// must hit the evaluation cache and return the identical result.
func TestCacheReuseAcrossJobs(t *testing.T) {
	ts, m := newTestServer(t, Config{PoolSize: 2, MaxJobs: 1})
	first := postJob(t, ts.URL, smallSpec())
	d1 := pollUntil(t, ts.URL, first.ID, func(s Snapshot) bool { return terminal(s.Status) }, "terminal")
	if d1.Status != StatusDone {
		t.Fatalf("first run ended %s (%s)", d1.Status, d1.Error)
	}
	missesAfterFirst := m.Metrics().CacheMisses
	if missesAfterFirst == 0 {
		t.Fatal("first run recorded no cache misses")
	}
	second := postJob(t, ts.URL, smallSpec())
	d2 := pollUntil(t, ts.URL, second.ID, func(s Snapshot) bool { return terminal(s.Status) }, "terminal")
	if d2.Status != StatusDone {
		t.Fatalf("second run ended %s (%s)", d2.Status, d2.Error)
	}
	met := m.Metrics()
	if met.CacheMisses != missesAfterFirst {
		t.Fatalf("second identical run missed the cache: %d -> %d misses", missesAfterFirst, met.CacheMisses)
	}
	if met.CacheHits < int64(d2.Evaluations) {
		t.Fatalf("second run: %d hits for %d evaluations", met.CacheHits, d2.Evaluations)
	}
	// Same spec, warm cache: scores must be reproduced exactly.
	if *d1.BestScore != *d2.BestScore {
		t.Fatalf("cached rerun best score %v != %v", *d2.BestScore, *d1.BestScore)
	}
	for k, v := range d1.BestConfig {
		if fmt.Sprint(d2.BestConfig[k]) != fmt.Sprint(v) {
			t.Fatalf("cached rerun best config differs at %s: %v != %v", k, d2.BestConfig[k], v)
		}
	}
	// The final refit is memoized like the fold scores: the rerun trains
	// nothing and reports the same test score.
	if d1.TestScore == nil || d2.TestScore == nil || *d1.TestScore != *d2.TestScore {
		t.Fatalf("cached rerun test score %v != %v", d2.TestScore, d1.TestScore)
	}
	m.mu.Lock()
	refits := m.scopes[smallSpec().CacheScope()].scope.refits.Stats()
	m.mu.Unlock()
	if refits.Misses != 1 || refits.Hits != 1 {
		t.Fatalf("refits after two identical runs: %+v, want 1 miss then 1 hit", refits)
	}
}

// TestQueuedJobRespectsMaxJobs verifies the MaxJobs gate and that a
// queued job can be cancelled before it ever runs.
func TestQueuedJobRespectsMaxJobs(t *testing.T) {
	ts, _ := newTestServer(t, Config{PoolSize: 1, MaxJobs: 1})
	running := postJob(t, ts.URL, bigSpec())
	pollUntil(t, ts.URL, running.ID, func(s Snapshot) bool { return s.Status == StatusRunning }, "running")
	queued := postJob(t, ts.URL, smallSpec())
	// With MaxJobs=1 the second job must stay queued while the first runs.
	if s := getJob(t, ts.URL, queued.ID); s.Status != StatusQueued {
		t.Fatalf("second job status %s, want queued", s.Status)
	}
	httpDo(t, http.MethodDelete, ts.URL+"/jobs/"+queued.ID, "")
	cancelled := pollUntil(t, ts.URL, queued.ID, func(s Snapshot) bool { return terminal(s.Status) }, "terminal")
	if cancelled.Status != StatusCancelled || cancelled.Evaluations != 0 {
		t.Fatalf("queued job ended %s with %d evaluations", cancelled.Status, cancelled.Evaluations)
	}
	// Unblock the long job quickly.
	httpDo(t, http.MethodDelete, ts.URL+"/jobs/"+running.ID, "")
}

// badSubmissions are bodies POST /jobs answers 400, by what is wrong
// with them.
var badSubmissions = map[string]string{
	"bad json":         `{`,
	"unknown field":    `{"dataset":"australian","method":"sha","bogus":1}`,
	"bad method":       `{"dataset":"australian","method":"sgd"}`,
	"bad dataset":      `{"dataset":"mnist","method":"sha"}`,
	"bad hps":          `{"dataset":"australian","method":"sha","hps":12}`,
	"negative limit":   `{"dataset":"australian","method":"sha","max_configs":-1}`,
	"timeout overflow": `{"dataset":"australian","method":"sha","timeout_sec":1e10}`,
}

// TestBadSubmissions exercises validation and routing errors.
func TestBadSubmissions(t *testing.T) {
	ts, _ := newTestServer(t, Config{PoolSize: 1, MaxJobs: 1})
	for name, body := range badSubmissions {
		if code, _ := httpDo(t, http.MethodPost, ts.URL+"/jobs", body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if code, _ := httpDo(t, http.MethodGet, ts.URL+"/jobs/job-999", ""); code != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", code)
	}
}

// TestMethodsEndpoint checks that GET /methods serves the hpo registry:
// all ten methods, sorted, with aliases and capability flags.
func TestMethodsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{PoolSize: 1, MaxJobs: 1})
	var methods []methodBody
	getJSON(t, ts.URL+"/methods", &methods)
	want := hpo.MethodNames()
	if len(methods) != len(want) {
		t.Fatalf("GET /methods returned %d methods, want %d", len(methods), len(want))
	}
	byName := map[string]methodBody{}
	for i, m := range methods {
		if m.Name != want[i] {
			t.Errorf("method %d is %q, want %q (sorted)", i, m.Name, want[i])
		}
		byName[m.Name] = m
	}
	if hb := byName["hyperband"]; len(hb.Aliases) != 1 || hb.Aliases[0] != "hb" || !hb.BudgetAware || hb.HonorsWorkers {
		t.Errorf("hyperband entry wrong: %+v", hb)
	}
	if tpe := byName["tpe"]; !tpe.HonorsTrials || tpe.BudgetAware || len(tpe.Aliases) != 1 || tpe.Aliases[0] != "optuna" {
		t.Errorf("tpe entry wrong: %+v", tpe)
	}
	if sha := byName["sha"]; !sha.BudgetAware || !sha.HonorsWorkers || !sha.HonorsMaxConfigs || sha.HonorsTrials {
		t.Errorf("sha entry wrong: %+v", sha)
	}
}

// TestUnhonoredFieldRejected checks the named-field 400: a spec field the
// selected method cannot honor is rejected at submission, with the field
// name in the error envelope, instead of being silently ignored.
func TestUnhonoredFieldRejected(t *testing.T) {
	ts, _ := newTestServer(t, Config{PoolSize: 1, MaxJobs: 1})
	for name, tc := range map[string]struct {
		body  string
		field string
	}{
		"hyperband max_configs": {`{"dataset":"australian","method":"hyperband","max_configs":6}`, "max_configs"},
		"hyperband workers":     {`{"dataset":"australian","method":"hyperband","workers":2}`, "workers"},
		"bohb workers":          {`{"dataset":"australian","method":"bohb","workers":2}`, "workers"},
		"tpe max_configs":       {`{"dataset":"australian","method":"tpe","max_configs":6}`, "max_configs"},
		"sha trials":            {`{"dataset":"australian","method":"sha","trials":3}`, "trials"},
		"pasha workers":         {`{"dataset":"australian","method":"pasha","workers":2}`, "workers"},
		"unknown method":        {`{"dataset":"australian","method":"sgd"}`, "method"},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		var body errorBody
		decodeErr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
			continue
		}
		if decodeErr != nil {
			t.Errorf("%s: decoding error body: %v", name, decodeErr)
			continue
		}
		if body.Field != tc.field {
			t.Errorf("%s: error names field %q, want %q (error: %s)", name, body.Field, tc.field, body.Error)
		}
	}
}

// TestAllMethodsServable submits one tiny job per registered method — the
// full-budget baselines and DEHB/PASHA included — and polls each to done,
// checking that a best score and a live anytime curve came back. This is
// the registry's end-to-end guarantee: everything registered is servable.
func TestAllMethodsServable(t *testing.T) {
	ts, _ := newTestServer(t, Config{PoolSize: 2, MaxJobs: 2})
	for _, info := range hpo.Methods() {
		spec := JobSpec{
			Dataset: "australian",
			Scale:   0.06,
			Method:  info.Name,
			NumHPs:  2,
			Iters:   2,
			Seed:    3,
		}
		// Keep every method tiny using whichever cap it honors.
		if info.HonorsMaxConfigs {
			spec.MaxConfigs = 6
		}
		if info.HonorsTrials {
			spec.Trials = 4
		}
		snap := postJob(t, ts.URL, spec)
		done := pollUntil(t, ts.URL, snap.ID, func(s Snapshot) bool { return terminal(s.Status) }, "terminal")
		if done.Status != StatusDone {
			t.Errorf("%s: finished %s (error: %s)", info.Name, done.Status, done.Error)
			continue
		}
		if done.BestScore == nil || done.TestScore == nil {
			t.Errorf("%s: done without best/test score", info.Name)
		}
		if done.Evaluations == 0 || len(done.Curve) == 0 {
			t.Errorf("%s: no anytime curve (evaluations=%d, curve=%d)", info.Name, done.Evaluations, len(done.Curve))
		}
	}
}

// TestJobCurveMatchesAnytime: the curve a job's feed gathers trial by
// trial is the library's anytime curve of the same trials, bit for bit —
// what a served job streams and what the CLI computes cannot drift apart.
func TestJobCurveMatchesAnytime(t *testing.T) {
	m := NewManager(Config{PoolSize: 1})
	defer shutdown(t, m)
	job := &Job{ID: "job-1", hub: m.hub}
	if got := job.Snapshot().Curve; got == nil || len(got) != 0 {
		t.Fatalf("curve before any trial = %#v, want an empty, non-nil slice", got)
	}
	trials := []hpo.Trial{
		{Budget: 30, Score: 0.5, Elapsed: 3 * time.Millisecond},
		{Budget: 30, Score: 0.25, Elapsed: 5 * time.Millisecond},
		{Budget: 90, Score: 0.75, Round: 1, Elapsed: 7 * time.Millisecond},
		{Budget: 90, Score: 0.75, Round: 1, Elapsed: 2 * time.Millisecond},
		{Budget: 270, Score: -1, Round: 2, Elapsed: 11 * time.Millisecond},
	}
	for _, tr := range trials {
		m.observeTrial(job, tr)
	}
	snap := job.Snapshot()
	want := trace.Anytime(trials)
	if snap.Evaluations != len(want) || len(snap.Curve) != len(want) {
		t.Fatalf("evaluations %d, curve of %d points, want %d", snap.Evaluations, len(snap.Curve), len(want))
	}
	for i := range want {
		if snap.Curve[i] != want[i] {
			t.Errorf("point %d = %+v, want %+v", i, snap.Curve[i], want[i])
		}
	}
}

// TestJobCurveRanksNaNLast: a job's curve takes trace.Step's incumbent
// rule — a NaN after a score keeps the score, and a score after a NaN
// replaces it.
func TestJobCurveRanksNaNLast(t *testing.T) {
	m := NewManager(Config{PoolSize: 1})
	defer shutdown(t, m)
	job := &Job{ID: "job-1", hub: m.hub}
	nan := math.NaN()
	for _, score := range []float64{nan, 0.5, nan, 0.25} {
		m.observeTrial(job, hpo.Trial{Budget: 30, Score: score})
	}
	want := []float64{nan, 0.5, 0.5, 0.5}
	curve := job.Snapshot().Curve
	if len(curve) != len(want) {
		t.Fatalf("curve of %d points, want %d", len(curve), len(want))
	}
	for i, p := range curve {
		if got := p.BestScore; got != want[i] && !(math.IsNaN(got) && math.IsNaN(want[i])) {
			t.Errorf("point %d incumbent %v, want %v", i, got, want[i])
		}
	}
}
