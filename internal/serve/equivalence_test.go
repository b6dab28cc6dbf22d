package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
	"enhancedbhpo/internal/serve/shipper"
	"enhancedbhpo/internal/trace"
)

// This file holds the service's equivalence gate: a served job's outcome
// and its incumbent curve do not depend on how it was served (the twin
// table), and what a node serves does not depend on how many times it
// died or where its data directory came from (the read-back table).

// getBody returns the body of GET url, failing the test unless it is a 200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v: %s", url, resp.StatusCode, err, body)
	}
	return body
}

// httpDo returns the status and body of one request against a node.
func httpDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

// getJSON decodes the body of GET url into into.
func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	if err := json.Unmarshal(getBody(t, url), into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// waitJournaled waits until the records in dir hold every named job as
// terminal: a snapshot says done before its result record is written.
func waitJournaled(t *testing.T, dir string, ids ...string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		states, err := journal.Replay(dir)
		done := map[string]bool{}
		for _, st := range states {
			done[st.ID] = st.Terminal()
		}
		missing := ""
		for _, id := range ids {
			if !done[id] {
				missing = id
			}
		}
		if err == nil && missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s's result never reached the journal (%v)", missing, err)
		}
	}
}

// curveDiff names the first point where two anytime curves differ in
// evaluations, cumulative budget or the bits of the incumbent score, or
// where either one's cumulative time decreases; "" when none does.
// Cumulative time is real time, so it is only checked for order.
func curveDiff(got, want []trace.Point) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Evaluations != w.Evaluations || g.CumBudget != w.CumBudget || math.Float64bits(g.BestScore) != math.Float64bits(w.BestScore) {
			return fmt.Sprintf("point %d is %+v, want %+v", i, g, w)
		}
		if i > 0 && (g.CumTime < got[i-1].CumTime || w.CumTime < want[i-1].CumTime) {
			return fmt.Sprintf("cum_time_ns decreases at point %d", i)
		}
	}
	return ""
}

// sameOutcome fails the test unless got ends as its plain twin want:
// done, with the same evaluations, curve, sparkline, best configuration
// and the same bits of the best and test scores.
func sameOutcome(t *testing.T, got, want Snapshot) {
	t.Helper()
	if got.Status != StatusDone || want.Status != StatusDone {
		t.Fatalf("the job ended %s (%s), its twin %s", got.Status, got.Error, want.Status)
	}
	if got.Evaluations != want.Evaluations {
		t.Errorf("%d evaluations, the twin %d", got.Evaluations, want.Evaluations)
	}
	if d := curveDiff(got.Curve, want.Curve); d != "" {
		t.Errorf("curve: %s\n got %v\nwant %v", d, got.Curve, want.Curve)
	}
	bits := func(p *float64) uint64 { return math.Float64bits(*p) }
	if got.Sparkline != want.Sparkline || canonJSON(t, got.BestConfig) != canonJSON(t, want.BestConfig) ||
		bits(got.BestScore) != bits(want.BestScore) || bits(got.TestScore) != bits(want.TestScore) {
		t.Errorf("got %s best %v = %v, test %v; the twin %s %v = %v, test %v",
			got.Sparkline, got.BestConfig, *got.BestScore, *got.TestScore, want.Sparkline, want.BestConfig, *want.BestScore, *want.TestScore)
	}
}

// rungGate holds the job's first evaluation at a budget above its first
// one — its first trial of a higher rung — until gate closes.
type rungGate struct {
	inner   hpo.Evaluator
	gate    chan struct{}
	entered chan struct{}
	first   int
	done    bool
}

func (g *rungGate) FullBudget() int { return g.inner.FullBudget() }

func (g *rungGate) Evaluate(c search.Config, budget int, r *rng.RNG) ([]float64, error) {
	if g.first == 0 {
		g.first = budget
	}
	if !g.done && budget > g.first {
		g.done = true
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.inner.Evaluate(c, budget, r)
}

// resumeConfig is a one-slot journaled manager on which a vip's job
// preempts a victim's.
func resumeConfig(t *testing.T) Config {
	return Config{
		PoolSize: 1, MaxJobs: 1, MaxPending: 64, DataDir: t.TempDir(),
		TenantWeights: map[string]int{"victim": 1, "vip": 8},
	}
}

// preemptInRungOne runs job-1, the victim's spec, on a manager of cfg
// until it yields right after its first trial of a higher rung to job-2,
// which then freezes in its first evaluation; then the manager dies.
func preemptInRungOne(t *testing.T, cfg Config, spec JobSpec) {
	t.Helper()
	gate, victimIn := make(chan struct{}), make(chan struct{}, 1)
	release, frozen := make(chan struct{}), make(chan struct{})
	cfg.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
		if id == "job-1" {
			return &rungGate{inner: inner, gate: gate, entered: victimIn}
		}
		return &stubEvaluator{inner: inner, hold: release, entered: frozen}
	}
	m := bootJournaled(t, cfg)
	t.Cleanup(func() {
		close(release)
		shutdown(t, m)
	})
	victim := submitAs(t, m, spec, "job-1")
	<-victimIn
	submitAs(t, m, tinySpec("vip", 70), "job-2")
	close(gate)
	<-frozen // MaxJobs is 1: the vip runs, so the victim yielded
	if snap := victim.Snapshot(); snap.Status != StatusQueued || snap.Preemptions != 1 {
		t.Fatalf("the victim is %s after %d preemptions; the row needs it preempted once and waiting", snap.Status, snap.Preemptions)
	}
	// Kill: no Shutdown, nothing closed.
}

// runDone submits spec to m as wantID and returns the job once done.
func runDone(t *testing.T, m *Manager, spec JobSpec, wantID string) *Job {
	t.Helper()
	job := submitAs(t, m, spec, wantID)
	waitJob(t, m, wantID, terminal, "terminal")
	return job
}

// TestTwinEquivalence: a job of each bandit method served under a
// perturbation — a pool that lends folds, a preemption, a kill at each
// state a job can be left in, a history cut short, an evicted scope —
// ends as its plain twin, run alone on a one-slot pool, does: the same
// evaluations, curve (bit for bit but its real-time column), sparkline,
// best configuration and best and test scores. The twin itself is the
// core.Run of its spec (TestServedJobMatchesCoreRun).
func TestTwinEquivalence(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, spec JobSpec) Snapshot
	}{
		{"pool-2-lends-folds", func(t *testing.T, spec JobSpec) Snapshot {
			// One trial at a time, so the second slot is idle for folds.
			if method, _ := hpo.LookupMethod(spec.Method); method.Info().HonorsWorkers {
				spec.Workers = 1
			}
			m := NewManager(Config{PoolSize: 2, MaxJobs: 1})
			defer shutdown(t, m)
			job := runDone(t, m, spec, "job-1")
			if n := m.Metrics().FoldsLent; n == 0 {
				t.Error("no fold was lent to the idle slot")
			}
			return job.Snapshot()
		}},
		{"preempted-resumed", func(t *testing.T, spec JobSpec) Snapshot {
			gate, victimIn := make(chan struct{}), make(chan struct{}, 1)
			m := NewManager(Config{
				PoolSize: 1, MaxJobs: 1, TenantWeights: map[string]int{"victim": 1, "vip": 8},
				WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
					if id != "job-1" {
						return inner
					}
					return &gateOnceEvaluator{inner: inner, gate: gate, entered: victimIn}
				},
			})
			defer shutdown(t, m)
			victim := submitAs(t, m, spec, "job-1")
			<-victimIn
			submitAs(t, m, tinySpec("vip", 70), "job-2")
			close(gate)
			waitJob(t, m, victim.ID, terminal, "terminal")
			if n, mt := victim.Snapshot().Preemptions, m.Metrics(); n != 1 || mt.Preemptions != 1 || mt.Resumes != 1 {
				t.Errorf("preempted %d times, %d preemptions and %d resumes counted; the row needs one of each", n, mt.Preemptions, mt.Resumes)
			}
			return victim.Snapshot()
		}},
		{"preempted-killed-restarted", func(t *testing.T, spec JobSpec) Snapshot {
			// It goes on from the round its trace log says it had entered:
			// its resumed event carries the round of its preempted event,
			// and no rung it entered before is announced twice.
			cfg := resumeConfig(t)
			preemptInRungOne(t, cfg, spec)
			m := bootJournaled(t, cfg)
			defer shutdown(t, m)
			ts := httptest.NewServer(NewServer(m))
			defer ts.Close()
			job := waitJob(t, m, "job-1", terminal, "terminal")
			var evs []events.Event
			getJSON(t, ts.URL+"/jobs/job-1/trace?events=1", &evs)
			rungs := map[int]int{}
			preempted, resumed := -1, -1
			for _, ev := range evs {
				switch ev.Type {
				case events.TypeRung:
					rungs[ev.Round]++
				case events.TypePreempted:
					preempted = ev.Round
				case events.TypeResumed:
					resumed = ev.Round
				}
			}
			if preempted < 1 || resumed != preempted {
				t.Errorf("preempted in round %d, resumed in round %d; want one round past the first, twice", preempted, resumed)
			}
			for round, n := range rungs {
				if n != 1 {
					t.Errorf("round %d announced %d times", round, n)
				}
			}
			return job.Snapshot()
		}},
		{"preempted-killed-short-history", func(t *testing.T, spec JobSpec) Snapshot {
			// The job's curve points from its third on are missing from the
			// middle of the log, as events that did not encode leave them;
			// its preempt record stands. It resumes from the two points
			// left, and the short history counts once in trace_store_errors.
			cfg := resumeConfig(t)
			preemptInRungOne(t, cfg, spec)
			segs := traceSegments(t, cfg.DataDir)
			raw, err := os.ReadFile(segs[len(segs)-1])
			if err != nil {
				t.Fatal(err)
			}
			points := 0
			raw = keepLines(raw, func(line []byte) bool {
				if !bytes.Contains(line, []byte(`"job":"job-1"`)) || !bytes.Contains(line, []byte(`"curve_point"`)) {
					return true
				}
				points++
				return points < 3
			})
			if points < 3 {
				t.Fatalf("job-1 has %d curve points in the trace log", points)
			}
			if err := os.WriteFile(segs[len(segs)-1], raw, 0o644); err != nil {
				t.Fatal(err)
			}
			m := bootJournaled(t, cfg)
			defer shutdown(t, m)
			job := waitJob(t, m, "job-1", terminal, "terminal")
			if n := m.Metrics().TraceStoreErrors; n != 1 {
				t.Errorf("trace_store_errors = %d, want 1 for the short history", n)
			}
			return job.Snapshot()
		}},
		{"scope-evicted-rebuilt", func(t *testing.T, spec JobSpec) Snapshot {
			// Eviction may cost cache warmth, never reproducibility: the
			// second run is submitted to an empty scope table.
			m := NewManager(Config{PoolSize: 1, MaxJobs: 1, ScopeTTL: 10 * time.Millisecond})
			defer shutdown(t, m)
			runDone(t, m, spec, "job-1")
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				if mt := m.Metrics(); mt.CacheScopes == 0 && mt.ScopesEvicted >= 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the janitor never evicted the idle scope")
				}
			}
			return runDone(t, m, spec, "job-2").Snapshot()
		}},
		{"queued-killed-restarted", func(t *testing.T, spec JobSpec) Snapshot {
			// Queued behind a frozen job when the process died: it runs in
			// the next life, and submissions there number on past it.
			release, frozen := make(chan struct{}), make(chan struct{})
			cfg := Config{PoolSize: 1, MaxJobs: 1, DataDir: t.TempDir()}
			live := cfg
			live.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
				if id == "job-1" {
					return &stubEvaluator{inner: inner, hold: release, entered: frozen}
				}
				return inner
			}
			m1 := bootJournaled(t, live)
			t.Cleanup(func() {
				close(release)
				shutdown(t, m1)
			})
			submitAs(t, m1, tinySpec("blocker", 1), "job-1")
			<-frozen
			if job := submitAs(t, m1, spec, "job-2"); job.Status() != StatusQueued {
				t.Fatalf("job-2 is %s behind a frozen job", job.Status())
			}
			// Kill: no Shutdown, nothing closed.
			m2 := bootJournaled(t, cfg)
			defer shutdown(t, m2)
			job := waitJob(t, m2, "job-2", terminal, "terminal")
			submitAs(t, m2, tinySpec("blocker", 2), "job-3")
			return job.Snapshot()
		}},
	}
	hyperband := JobSpec{Tenant: "victim", Dataset: "australian", Scale: 0.2, Method: "hyperband", NumHPs: 2, Iters: 2, Seed: 3}
	sha := smallSpec()
	sha.Tenant = "victim"
	for _, spec := range []JobSpec{sha, hyperband, wideSpec("victim")} {
		t.Run(spec.Method, func(t *testing.T) {
			t.Parallel() // the methods share nothing; each one's rows run in turn
			m := NewManager(Config{PoolSize: 1, MaxJobs: 1})
			twin := runDone(t, m, spec, "job-1").Snapshot()
			shutdown(t, m)
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) { sameOutcome(t, row.run(t, spec), twin) })
			}
		})
	}
}

// servedJob is everything a client can read of one job.
type servedJob struct {
	job     []byte            // GET /jobs/{id}
	snap    Snapshot          // the same, decoded
	trace   []trace.Point     // GET /jobs/{id}/trace, decoded
	rawTr   []byte            // the same, as served
	events  []json.RawMessage // GET /jobs/{id}/trace?events=1
	since   []trace.Point     // the curve of GET /jobs/{id}?since=N
	sse     [][]byte          // GET /jobs/{id}/events with Last-Event-ID N
	lastSeq uint64
}

// readServed reads a job's history every way the API offers it, the
// incremental ones from sequence n; the SSE stream is followed up to the
// last_seq read before it (a live feed never closes).
func readServed(t *testing.T, base, id string, n uint64) servedJob {
	t.Helper()
	url := base + "/jobs/" + id
	out := servedJob{job: getBody(t, url), rawTr: getBody(t, url+"/trace")}
	if err := json.Unmarshal(out.job, &out.snap); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.rawTr, &out.trace); err != nil {
		t.Fatal(err)
	}
	getJSON(t, url+"/trace?events=1", &out.events)
	var since Snapshot
	getJSON(t, fmt.Sprintf("%s?since=%d", url, n), &since)
	out.since, out.lastSeq = since.Curve, since.LastSeq
	stream := openSSE(t, base, id, n)
	defer stream.close()
	for n < out.lastSeq {
		ev, ok := stream.next(t)
		if !ok {
			break
		}
		frame, _ := json.Marshal(ev)
		out.sse = append(out.sse, frame)
		n = ev.Seq
	}
	// The snapshot's curve is the first `evaluations` points of the trace,
	// whatever else the feed holds.
	if k := out.snap.Evaluations; k > len(out.trace) || !slices.Equal(out.snap.Curve, out.trace[:k]) {
		t.Errorf("%s: the snapshot serves %d points for %d evaluations, /trace %d", id, len(out.snap.Curve), k, len(out.trace))
	}
	return out
}

// nodeView is what one life of a node serves: every job's history, the
// listing by job and the tenants' accounting, whose virtual times and
// grant counts restart level and are left out.
type nodeView struct {
	jobs    map[string]servedJob
	listing map[string]string
	tenants []TenantStatus
}

// readNode reads a node's view of the jobs ids, each job's incremental
// surfaces from from[id].
func readNode(t *testing.T, base string, ids []string, from map[string]uint64) nodeView {
	t.Helper()
	v := nodeView{jobs: map[string]servedJob{}, listing: map[string]string{}}
	for _, id := range ids {
		v.jobs[id] = readServed(t, base, id, from[id])
	}
	var listing []json.RawMessage
	getJSON(t, base+"/jobs", &listing)
	for _, row := range listing {
		var s Snapshot
		if err := json.Unmarshal(row, &s); err != nil {
			t.Fatal(err)
		}
		v.listing[s.ID] = string(row)
	}
	var tenants tenantsResponse
	getJSON(t, base+"/tenants", &tenants)
	for i := range tenants.Tenants {
		tenants.Tenants[i].VTime, tenants.Tenants[i].Granted = 0, 0
	}
	v.tenants = tenants.Tenants
	return v
}

// The read-back node's jobs: the victim tenant's four and the vips' three
// that preempted them (job-2, job-4, job-6) or froze (job-7).
const (
	rbFinished    = "job-1" // preempted, retried, absorbed a failure, done in the first life
	rbResumedPast = "job-3" // resumed past its checkpoint in the first life, done in the second
	rbResumable   = "job-5" // preempted and waiting when the second life died
	rbInterrupted = "job-7" // frozen mid-run when the second life died
)

var rbJobs = []string{rbFinished, "job-2", rbResumedPast, "job-4", rbResumable, "job-6", rbInterrupted}

// readBack is the read-back node as its second life died with it: the
// files of its data directory and of the replica that life shipped,
// restored into a fresh one, by path, and what the node served before it
// died.
type readBack struct {
	base           Config               // a life's configuration, but for its directory
	data, restored map[string][]byte    // the files of each directory
	from           map[string]uint64    // where each job's incremental surfaces are read from
	ran            map[string]servedJob // the first life's view of the jobs it finished: job-1, job-2, job-4
	died           nodeView             // the second life's view of every job
}

// readBacks holds the read-back node built at each trace segment size and
// GOMAXPROCS: the tests that bring it back copy its files, so one build
// serves them all.
var (
	readBacksMu sync.Mutex
	readBacks   = map[[2]int64]*readBack{}
)

// newReadBack returns the read-back node on trace segments of traceMax
// bytes (0: the default, one segment a life), built over two lives that
// ship their files to a replica, synchronously. The first finishes job-1
// after a preemption and an absorbed failed trial, and dies with
// job-3 resumed past its checkpoint. The second resumes job-3 from that
// checkpoint, so its log holds the re-published points twice, and
// finishes it; then it dies with job-5 preempted and waiting behind job-7,
// frozen mid-run.
func newReadBack(t *testing.T, traceMax int64) *readBack {
	t.Helper()
	readBacksMu.Lock()
	defer readBacksMu.Unlock()
	key := [2]int64{traceMax, int64(runtime.GOMAXPROCS(0))}
	if rb := readBacks[key]; rb != nil {
		return rb
	}
	rb := &readBack{from: map[string]uint64{}, base: Config{
		PoolSize: 1, MaxJobs: 1, MaxPending: 64, TraceMaxBytes: traceMax,
		TenantWeights: map[string]int{"victim": 1, "vip": 8},
	}}
	dir, replica := t.TempDir(), filepath.Join(t.TempDir(), "a")
	release := make(chan struct{})
	var managers []*Manager
	var ships []*shipper.Shipper
	t.Cleanup(func() {
		close(release) // first: a held evaluation outlives a cancelled context
		for i := len(managers) - 1; i >= 0; i-- {
			shutdown(t, managers[i])
		}
		for _, s := range ships {
			s.Close()
		}
	})
	// boot starts a shipping life on dir.
	boot := func(wrap func(string, hpo.Evaluator) hpo.Evaluator) *Manager {
		sink, err := shipper.NewDirSink(replica)
		if err != nil {
			t.Fatal(err)
		}
		cfg := rb.base
		cfg.DataDir, cfg.WrapEvaluator, cfg.NodeName = dir, wrap, "a"
		cfg.Shipper = shipper.NewMulti(dir, []shipper.Sink{sink}, shipper.Options{Sync: true})
		ships = append(ships, cfg.Shipper)
		m := bootJournaled(t, cfg)
		managers = append(managers, m)
		return m
	}
	// read reads the jobs ids from the node at url, each job's incremental
	// surfaces from half its last_seq.
	read := func(url string, ids ...string) map[string]servedJob {
		views := map[string]servedJob{}
		for _, id := range ids {
			n := getJob(t, url, id).LastSeq
			if n < 3 {
				t.Fatalf("%s has only %d events before the kill", id, n)
			}
			rb.from[id] = n / 2
			views[id] = readServed(t, url, id, n/2)
		}
		return views
	}
	gates := map[string]chan struct{}{rbFinished: make(chan struct{}), rbResumedPast: make(chan struct{}), rbResumable: make(chan struct{})}
	victimIn, frozen := make(chan struct{}, 1), make(chan struct{})
	// preempt submits the victim's job id, held in its first evaluation
	// until the vips' jobs are queued behind it, then lets it go on.
	preempt := func(m *Manager, victim JobSpec, id string, vips ...string) {
		submitAs(t, m, victim, id)
		<-victimIn
		for _, vip := range vips {
			spec := tinySpec("vip", 70)
			if vip == rbInterrupted {
				spec = smallSpec()
				spec.Tenant = "vip"
			}
			submitAs(t, m, spec, vip)
		}
		close(gates[id])
	}

	// First life: the finished job, and the one that dies past its
	// checkpoint.
	var m1 *Manager
	m1 = boot(func(id string, inner hpo.Evaluator) hpo.Evaluator {
		if id != rbFinished && id != rbResumedPast {
			return inner
		}
		job, _ := m1.Get(id)
		job.mu.Lock()
		replayed := int64(job.checkpointLen)
		job.mu.Unlock()
		if replayed == 0 {
			return &gateOnceEvaluator{inner: inner, gate: gates[id], entered: victimIn}
		}
		// The resumed segment, after its replayed prefix: the finished
		// job's first new trial fails; the other runs two new trials and
		// dies in its third.
		calls := new(atomic.Int64)
		return funcEvaluator{inner, func(c search.Config, budget int, r *rng.RNG) ([]float64, error) {
			switch n := calls.Add(1); {
			case id == rbFinished && n == replayed+1:
				return nil, errors.New("injected: definitive failure")
			case id == rbResumedPast && n == replayed+3:
				close(frozen)
				<-release
				return nil, errors.New("killed")
			}
			return inner.Evaluate(c, budget, r)
		}}
	})
	preempt(m1, wideSpec("victim"), rbFinished, "job-2")
	waitJob(t, m1, rbFinished, terminal, "terminal")
	second := wideSpec("victim")
	second.Seed = 8
	preempt(m1, second, rbResumedPast, "job-4")
	<-frozen
	for id, want := range map[string]Status{rbFinished: StatusDone, rbResumedPast: StatusRunning} {
		if job, _ := m1.Get(id); job.Snapshot().Status != want || job.Snapshot().Preemptions != 1 {
			t.Fatalf("%s is %s after %d preemptions; the node needs it %s after one", id, job.Status(), job.Snapshot().Preemptions, want)
		}
	}
	if job, _ := m1.Get(rbFinished); job.Snapshot().Failures != 1 {
		t.Fatalf("%s absorbed %d failures; the node needs one", rbFinished, job.Snapshot().Failures)
	}
	waitJournaled(t, dir, rbFinished, "job-2", "job-4")
	ts1 := httptest.NewServer(NewServer(m1))
	rb.ran = read(ts1.URL, rbFinished, "job-2", "job-4")
	ts1.Close()
	// Kill: no Shutdown, nothing closed.

	// Second life: the job past its checkpoint resumes from it and
	// finishes; a victim is preempted and waits behind a vip's job frozen
	// mid-run.
	frozenB := make(chan struct{})
	m2 := boot(func(id string, inner hpo.Evaluator) hpo.Evaluator {
		switch id {
		case rbResumable:
			return &gateOnceEvaluator{inner: inner, gate: gates[rbResumable], entered: victimIn}
		case rbInterrupted:
			return &stubEvaluator{inner: inner, free: 3, hold: release, entered: frozenB}
		}
		return inner
	})
	waitJob(t, m2, rbResumedPast, terminal, "terminal")
	preempt(m2, wideSpec("victim"), rbResumable, "job-6", rbInterrupted)
	<-frozenB // MaxJobs is 1: the vips run, so the victim yielded
	if job, _ := m2.Get(rbResumable); job.Snapshot().Status != StatusQueued || job.Snapshot().Preemptions != 1 {
		t.Fatalf("%s is %s; the node needs it preempted once and waiting", rbResumable, job.Snapshot().Status)
	}
	waitJournaled(t, dir, rbResumedPast, "job-6")
	ts2 := httptest.NewServer(NewServer(m2))
	read(ts2.URL, rbResumedPast, rbResumable, "job-6", rbInterrupted)
	rb.died = readNode(t, ts2.URL, rbJobs, rb.from)
	ts2.Close()
	// Kill: no Shutdown, nothing closed.

	seen := map[events.Type]bool{}
	for _, ev := range m2.hub.Since(rbFinished, 0) {
		seen[ev.Type] = true
	}
	if !seen[events.TypeRung] || !seen[events.TypeFailure] || !seen[events.TypePreempted] {
		t.Fatalf("%s's trace lacks a rung, failure or preempted event: %v", rbFinished, seen)
	}
	if segs := traceSegments(t, dir); traceMax == 0 && len(segs) != 2 || traceMax > 0 && len(segs) < 3 {
		t.Fatalf("%d trace segments at TraceMaxBytes %d; the node needs one a life, or several to straddle", len(segs), traceMax)
	}
	restored := filepath.Join(t.TempDir(), "restored")
	if _, err := shipper.Restore([]string{replica}, restored); err != nil {
		t.Fatal(err)
	}
	rb.data, rb.restored = readTree(t, dir), readTree(t, restored)
	for rel, local := range rb.data {
		if shipped, ok := rb.restored[rel]; !ok || !bytes.Equal(local, shipped) {
			t.Errorf("%s: %d bytes on the node, %d restored", rel, len(local), len(shipped))
		}
	}
	if len(rb.data) == 0 {
		t.Fatal("the node left no files")
	}
	if !t.Failed() {
		readBacks[key] = rb
	}
	return rb
}

// readTree returns the contents of every file under dir by its path
// relative to dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// writeTree writes files, as readTree returns them, into a new directory.
func writeTree(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for rel, data := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// cameBack is the read-back node back on a data directory: its first
// life there, which finishes the resumable job, and the life after one
// more restart, still serving at url.
type cameBack struct {
	m, again        *Manager
	view, againView nodeView
	url             string
}

// readBackCase brings the read-back node back on a copy of its data
// directory and, if restore is set, on a copy of the directory restored
// from its replica; on each way it restarts the node once more and runs
// check.
func readBackCase(t *testing.T, traceMax int64, restore bool, check func(t *testing.T, rb *readBack, back *cameBack)) {
	t.Helper()
	rb := newReadBack(t, traceMax)
	ways := []struct {
		name  string
		files map[string][]byte
	}{{"restart-in-place", rb.data}, {"restore", rb.restored}}
	if !restore {
		ways = ways[:1]
	}
	for _, way := range ways {
		t.Run(way.name, func(t *testing.T) {
			dir := writeTree(t, way.files)
			boot := func() *Manager {
				cfg := rb.base
				cfg.DataDir = dir
				m := bootJournaled(t, cfg)
				t.Cleanup(func() { shutdown(t, m) })
				return m
			}
			back := &cameBack{m: boot()}
			waitJob(t, back.m, rbResumable, terminal, "terminal")
			waitJournaled(t, dir, rbResumable)
			ts := httptest.NewServer(NewServer(back.m))
			back.view = readNode(t, ts.URL, rbJobs, rb.from)
			ts.Close()
			// Kill: no Shutdown, nothing closed.

			back.again = boot()
			ts = httptest.NewServer(NewServer(back.again))
			t.Cleanup(ts.Close)
			back.url = ts.URL
			back.againView = readNode(t, ts.URL, rbJobs, rb.from)
			check(t, rb, back)
		})
	}
}

// TestReadBackEquivalence: the read-back node, restarted in place or
// restored from its synchronously shipped replica (which holds every file
// byte for byte), serves every job as the life that died did: GET
// /jobs/{id}, /trace, ?events=1, ?since=N, SSE from Last-Event-ID,
// last_seq and its listing row. The frozen job adds its one synthesized
// terminal event; the resumable one resumes, finishes, and its feed and
// curve go on from where they stopped. A second restart changes nothing.
func TestReadBackEquivalence(t *testing.T) {
	readBackCase(t, 1<<10, true, func(t *testing.T, rb *readBack, back *cameBack) {
		for _, id := range rbJobs {
			sameServed(t, id, back.view.jobs[id], rb.died.jobs[id], id == rbInterrupted, id == rbResumable)
			sameServed(t, id, back.againView.jobs[id], back.view.jobs[id], false, false)
			if id != rbInterrupted && id != rbResumable && back.view.listing[id] != rb.died.listing[id] {
				t.Errorf("%s's listing row differs:\n now %s\n was %s", id, back.view.listing[id], rb.died.listing[id])
			}
		}
		if fmt.Sprint(back.againView.listing) != fmt.Sprint(back.view.listing) {
			t.Errorf("a second restart changed the listing:\n now %v\n was %v", back.againView.listing, back.view.listing)
		}
		if now, was := canonJSON(t, back.againView.tenants), canonJSON(t, back.view.tenants); now != was {
			t.Errorf("a second restart changed /tenants:\n now %s\n was %s", now, was)
		}
	})
}

// TestFinishedJobReadsSameAfterRestart: a finished job that was
// preempted and absorbed a failed trial reads the same from the life
// that ran it, from the next life and after the node came back — GET
// /jobs/{id} byte for byte, its first start time and its failure count
// included, and every other surface.
func TestFinishedJobReadsSameAfterRestart(t *testing.T) {
	readBackCase(t, 1<<10, false, func(t *testing.T, rb *readBack, back *cameBack) {
		ran := rb.ran[rbFinished]
		if s := ran.snap; s.Status != StatusDone || s.Preemptions != 1 || s.Failures != 1 || s.StartedAt == nil {
			t.Fatalf("%s ran to %s after %d preemptions and %d failures, started at %v", rbFinished, s.Status, s.Preemptions, s.Failures, s.StartedAt)
		}
		sameServed(t, rbFinished, rb.died.jobs[rbFinished], ran, false, false)
		sameServed(t, rbFinished, back.view.jobs[rbFinished], ran, false, false)
	})
}

// TestTraceSurvivesKillAndRestart: the vips' jobs the first life finished
// serve their whole history after each kill as that life served it. After
// the node came back, an SSE connect from 0 replays a finished job's
// event log in order and closes at its terminal tail, and last_seq is
// that tail's sequence.
func TestTraceSurvivesKillAndRestart(t *testing.T) {
	readBackCase(t, 1<<10, false, func(t *testing.T, rb *readBack, back *cameBack) {
		for _, id := range []string{"job-2", "job-4"} {
			sameServed(t, id, rb.died.jobs[id], rb.ran[id], false, false)
			sameServed(t, id, back.view.jobs[id], rb.ran[id], false, false)
		}
		var evs []events.Event
		getJSON(t, back.url+"/jobs/job-2/trace?events=1", &evs)
		if len(evs) == 0 || !evs[len(evs)-1].Terminal {
			t.Fatalf("the event log lacks its terminal tail (%d events)", len(evs))
		}
		if n := back.againView.jobs["job-2"].lastSeq; n != evs[len(evs)-1].Seq {
			t.Errorf("last_seq %d, the log ends at %d", n, evs[len(evs)-1].Seq)
		}
		stream := openSSE(t, back.url, "job-2", 0)
		defer stream.close()
		n := 0
		for ; ; n++ {
			ev, ok := stream.next(t)
			if !ok {
				break
			}
			if n >= len(evs) || ev.Seq != evs[n].Seq {
				t.Fatalf("the feed's event %d is seq %d; the log holds %d events", n, ev.Seq, len(evs))
			}
		}
		if n != len(evs) {
			t.Errorf("the feed replayed %d events, the log holds %d", n, len(evs))
		}
	})
}

// TestResumedPastCheckpointReadsSameAfterRestart: a job resumed from its
// preempt checkpoint, published two new curve points and died; the next
// life resumed it from the same checkpoint, published them again and
// finished it. Its trace log holds those points twice, yet its curve —
// GET /jobs/{id} and /trace alike — holds each once, and reads the same
// after the node came back and after one more restart.
func TestResumedPastCheckpointReadsSameAfterRestart(t *testing.T) {
	readBackCase(t, 1<<10, false, func(t *testing.T, rb *readBack, back *cameBack) {
		died := rb.died.jobs[rbResumedPast]
		published := 0
		for _, raw := range died.events {
			var ev events.Event
			if json.Unmarshal(raw, &ev) == nil && ev.Type == events.TypeCurvePoint {
				published++
			}
		}
		if published != died.snap.Evaluations+2 {
			t.Fatalf("the trace log holds %d curve points for %d evaluations; the test needs the two re-published", published, died.snap.Evaluations)
		}
		for _, v := range []servedJob{died, back.view.jobs[rbResumedPast], back.againView.jobs[rbResumedPast]} {
			if !slices.Equal(v.trace, v.snap.Curve) || len(v.trace) != v.snap.Evaluations {
				t.Errorf("/trace serves %d points, the snapshot %d for %d evaluations", len(v.trace), len(v.snap.Curve), v.snap.Evaluations)
			}
			if !bytes.Equal(v.job, died.job) || !bytes.Equal(v.rawTr, died.rawTr) {
				t.Errorf("GET /jobs/%s or its /trace differs:\n now %s\n     %s\n was %s\n     %s", rbResumedPast, v.job, v.rawTr, died.job, died.rawTr)
			}
		}
	})
}

// TestRestartServesThreeKindsOfJob: a node comes back to a finished job,
// one interrupted mid-run and one resumable from its checkpoint. The boot
// reports all seven jobs restored and its time split between the journal
// and the trace log. The interrupted job's feed ends in one synthesized
// terminal event — cancelled, interrupted, at the new last_seq — and the
// resumable one's feed goes on numbering where it stopped; nothing in the
// sound log counts as a trace-store error.
func TestRestartServesThreeKindsOfJob(t *testing.T) {
	readBackCase(t, 1<<10, false, func(t *testing.T, rb *readBack, back *cameBack) {
		if got := back.m.Metrics(); got.JobsRestored != len(rbJobs) || got.BootMS <= 0 || got.BootJournalMS <= 0 || got.BootTraceMS <= 0 ||
			got.BootJournalMS > got.BootMS || got.BootTraceMS > got.BootMS || got.TraceStoreErrors != 0 {
			t.Errorf("boot metrics: %d jobs restored in %v ms (journal %v ms, trace log %v ms), %d trace errors",
				got.JobsRestored, got.BootMS, got.BootJournalMS, got.BootTraceMS, got.TraceStoreErrors)
		}
		sameServed(t, rbFinished, back.view.jobs[rbFinished], rb.died.jobs[rbFinished], false, false)
		intr := back.view.jobs[rbInterrupted]
		var end events.Event
		if len(intr.sse) == 0 || json.Unmarshal(intr.sse[len(intr.sse)-1], &end) != nil || !end.Terminal ||
			end.Status != string(StatusCancelled) || end.Reason != string(ReasonInterrupted) || end.Seq != intr.lastSeq ||
			intr.lastSeq != rb.died.jobs[rbInterrupted].lastSeq+1 {
			t.Errorf("%s's feed ends in %+v at last_seq %d, was %d", rbInterrupted, end, intr.lastSeq, rb.died.jobs[rbInterrupted].lastSeq)
		}
		res, was := back.view.jobs[rbResumable], rb.died.jobs[rbResumable]
		var next events.Event
		if len(res.events) <= len(was.events) || json.Unmarshal(res.events[len(was.events)], &next) != nil || next.Seq != was.lastSeq+1 {
			t.Errorf("%s's feed goes on at %+v after last_seq %d", rbResumable, next, was.lastSeq)
		}
	})
}

// TestRestartRecovery: the node comes back with each job where it left
// it. The finished job is done with its curve, best configuration and
// scores; the job frozen mid-run is cancelled as interrupted; the
// preempted one is re-enqueued with its spec and runs to done past its
// checkpoint; and a new submission takes the next ID.
func TestRestartRecovery(t *testing.T) {
	readBackCase(t, 1<<10, false, func(t *testing.T, rb *readBack, back *cameBack) {
		if s := back.view.jobs[rbFinished].snap; s.Status != StatusDone || len(s.Curve) == 0 || len(s.BestConfig) == 0 ||
			s.BestScore == nil || s.TestScore == nil {
			t.Errorf("%s came back %s without its results: %+v", rbFinished, s.Status, s)
		}
		if s := back.view.jobs[rbInterrupted].snap; s.Status != StatusCancelled || s.Reason != ReasonInterrupted {
			t.Errorf("%s came back %s (%s)", rbInterrupted, s.Status, s.Reason)
		}
		s, was := back.view.jobs[rbResumable].snap, rb.died.jobs[rbResumable].snap
		if s.Status != StatusDone || s.Evaluations <= was.Evaluations || s.BestScore == nil || s.TestScore == nil ||
			canonJSON(t, s.Spec) != canonJSON(t, was.Spec) {
			t.Errorf("%s came back %s with %d evaluations (%d at the kill), spec %+v (was %+v)", rbResumable, s.Status, s.Evaluations, was.Evaluations, s.Spec, was.Spec)
		}
		runDone(t, back.again, tinySpec("vip", 73), fmt.Sprintf("job-%d", len(rbJobs)+1))
	})
}

// TestTraceByteIdenticalAcrossRebuild: whatever the trace segment size —
// the default, one segment a life, or 1 KiB, over which every history
// straddles several — the node rebuilt from its data directory serves each settled
// job's /trace and ?events=1 byte for byte as the life that died did, and
// a rebuild of a settled node publishes no event: a sealed segment is
// never rewritten, so nothing observational is shed.
func TestTraceByteIdenticalAcrossRebuild(t *testing.T) {
	for name, traceMax := range map[string]int64{"one-segment": 0, "straddling": 1 << 10} {
		t.Run(name, func(t *testing.T) {
			readBackCase(t, traceMax, false, func(t *testing.T, rb *readBack, back *cameBack) {
				for _, id := range rbJobs {
					now, was := back.view.jobs[id], rb.died.jobs[id]
					if id != rbInterrupted && id != rbResumable && (!bytes.Equal(now.rawTr, was.rawTr) ||
						!slices.EqualFunc(now.events, was.events, func(a, b json.RawMessage) bool { return bytes.Equal(a, b) })) {
						t.Errorf("%s's trace differs across the rebuild:\n now %s\n was %s", id, now.rawTr, was.rawTr)
					}
				}
				if mt := back.again.Metrics(); mt.EventsPublished != 0 || mt.TraceStoreErrors != 0 {
					t.Errorf("a rebuild of a settled node published %d events with %d trace errors", mt.EventsPublished, mt.TraceStoreErrors)
				}
			})
		})
	}
}

// sameServed fails the test unless now serves job id as was did. An
// interrupted job may add one synthesized terminal event; a resumable
// one's feed and curve may go on past was's.
func sameServed(t *testing.T, id string, now, was servedJob, interrupted, resumable bool) {
	t.Helper()
	extra := 0
	switch {
	case interrupted:
		extra = 1
		if n := len(now.sse); n == 0 || !bytes.Contains(now.sse[n-1], []byte(`"terminal":true`)) ||
			!bytes.Contains(now.sse[n-1], []byte(`"reason":"`+string(ReasonInterrupted)+`"`)) {
			t.Errorf("%s: no synthesized terminal event ends the feed: %s", id, now.sse)
		}
	case resumable:
		if now.lastSeq < was.lastSeq || len(now.events) < len(was.events) || len(now.sse) < len(was.sse) ||
			len(now.trace) < len(was.trace) || len(now.since) < len(was.since) {
			t.Fatalf("%s: history shrank: last_seq %d → %d, %d → %d events, %d → %d points",
				id, was.lastSeq, now.lastSeq, len(was.events), len(now.events), len(was.trace), len(now.trace))
		}
		now.lastSeq, now.events, now.sse = was.lastSeq, now.events[:len(was.events)], now.sse[:len(was.sse)]
		now.trace, now.since = now.trace[:len(was.trace)], now.since[:len(was.since)]
	default:
		if !bytes.Equal(now.job, was.job) || !bytes.Equal(now.rawTr, was.rawTr) {
			t.Errorf("%s: GET /jobs/{id} or /trace differs:\n now %s\n     %s\n was %s\n     %s", id, now.job, now.rawTr, was.job, was.rawTr)
		}
	}
	if now.lastSeq != was.lastSeq+uint64(extra) || len(now.events) != len(was.events)+extra || len(now.sse) != len(was.sse)+extra {
		t.Fatalf("%s: last_seq %d → %d, %d → %d events, %d → %d SSE frames; want %d more of each",
			id, was.lastSeq, now.lastSeq, len(was.events), len(now.events), len(was.sse), len(now.sse), extra)
	}
	if !slices.Equal(now.trace, was.trace) || !slices.Equal(now.since, was.since) {
		t.Errorf("%s: the curve differs:\n /trace %v\n was    %v\n since  %v\n was    %v", id, now.trace, was.trace, now.since, was.since)
	}
	for i := range was.events {
		if !bytes.Equal(now.events[i], was.events[i]) {
			t.Errorf("%s: event %d differs:\n now %s\n was %s", id, i, now.events[i], was.events[i])
		}
	}
	for i := range was.sse {
		if !bytes.Equal(now.sse[i], was.sse[i]) {
			t.Errorf("%s: SSE frame %d differs:\n now %s\n was %s", id, i, now.sse[i], was.sse[i])
		}
	}
}
