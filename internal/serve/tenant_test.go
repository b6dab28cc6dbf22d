package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// instantEvaluator replaces MLP training with a fixed fold score so
// scheduler tests measure grant accounting, not math kernels. A gate,
// when set, blocks evaluations for the job IDs in gateIDs (nil = all)
// until the channel closes — the standard trick to pile up a backlog
// before the scheduler makes any choices.
type instantEvaluator struct {
	inner   hpo.Evaluator
	gate    chan struct{}
	gated   bool
	entered chan struct{}
}

func (e *instantEvaluator) FullBudget() int { return e.inner.FullBudget() }

func (e *instantEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	if e.entered != nil {
		select {
		case e.entered <- struct{}{}:
		default:
		}
	}
	if e.gated {
		<-e.gate
	}
	return []float64{0.5}, nil
}

// tinySpec is the cheapest real job: one random trial, one evaluation.
func tinySpec(tenant string, seed uint64) JobSpec {
	return JobSpec{
		Tenant:  tenant,
		Dataset: "australian",
		Scale:   0.06,
		Method:  "random",
		Trials:  1,
		Iters:   2,
		Seed:    seed,
	}
}

// TestFairnessWeighted3to1: two tenants at weights 3:1 saturating a
// single run slot must complete jobs at a throughput ratio in
// [2.5, 3.5]. The first evaluation is gated so the full backlog exists
// before the scheduler grants anything; from then on every grant is a
// weighted-fair choice among both backlogged tenants.
func TestFairnessWeighted3to1(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	first := true
	m := NewManager(Config{
		PoolSize:      1,
		MaxJobs:       1,
		MaxPending:    256,
		TenantWeights: map[string]int{"gold": 3, "bronze": 1},
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			ev := &instantEvaluator{inner: inner, gate: gate, gated: first, entered: entered}
			first = false
			return ev
		},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})

	// The barrier job occupies the only run slot, wedged in its gated
	// evaluation, while 60+60 jobs pile up behind it.
	barrier, err := m.SubmitToken(tinySpec("gold", 1), "")
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	tenantOf := map[string]string{barrier.ID: "gold"}
	for i := 0; i < 60; i++ {
		jg, err := m.SubmitToken(tinySpec("gold", uint64(100+i)), "")
		if err != nil {
			t.Fatalf("gold submit %d: %v", i, err)
		}
		jb, err := m.SubmitToken(tinySpec("bronze", uint64(200+i)), "")
		if err != nil {
			t.Fatalf("bronze submit %d: %v", i, err)
		}
		tenantOf[jg.ID] = "gold"
		tenantOf[jb.ID] = "bronze"
	}
	close(gate)

	// Wait for a big enough grant prefix, then score the weighted split
	// over it. Counting grants rather than completions keeps the ratio
	// exact: grants are the scheduler's own decisions, completions add
	// timing noise.
	const prefix = 48
	deadline := time.Now().Add(60 * time.Second)
	var grants []string
	for {
		grants = m.sched.Grants()
		if len(grants) >= prefix+1 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(grants) < prefix+1 {
		t.Fatalf("only %d grants before deadline", len(grants))
	}
	gold, bronze := 0, 0
	// Skip the barrier grant: it was admitted to an empty scheduler, not
	// chosen against a backlog.
	for _, id := range grants[1 : prefix+1] {
		switch tenantOf[id] {
		case "gold":
			gold++
		case "bronze":
			bronze++
		default:
			t.Fatalf("grant %q has unknown tenant", id)
		}
	}
	if bronze == 0 {
		t.Fatalf("bronze starved: grants gold=%d bronze=0", gold)
	}
	ratio := float64(gold) / float64(bronze)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("throughput ratio %.2f (gold=%d bronze=%d), want [2.5, 3.5]", ratio, gold, bronze)
	}
}

// TestSchedulerDeterminism: the same submission trace must produce an
// identical grant order whether evaluations run on 1 worker or 8 —
// per-tenant completion order is a pure function of the trace, not of
// evaluation parallelism. With MaxJobs=1, jobs complete serially in
// grant order, so grant-order equality is completion-order equality.
func TestSchedulerDeterminism(t *testing.T) {
	trace := func() []JobSpec {
		var specs []JobSpec
		for i := 0; i < 8; i++ {
			specs = append(specs, tinySpec("a", uint64(10+i)))
			specs = append(specs, tinySpec("b", uint64(20+i)))
			specs = append(specs, tinySpec("c", uint64(30+i)))
		}
		return specs
	}
	run := func(pool int) []string {
		gate := make(chan struct{})
		entered := make(chan struct{}, 1)
		first := true
		m := NewManager(Config{
			PoolSize:      pool,
			MaxJobs:       1,
			MaxPending:    256,
			TenantWeights: map[string]int{"a": 3, "b": 2, "c": 1},
			WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
				ev := &instantEvaluator{inner: inner, gate: gate, gated: first, entered: entered}
				first = false
				return ev
			},
		})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			m.Shutdown(ctx)
		}()
		barrier, err := m.SubmitToken(tinySpec("a", 1), "")
		if err != nil {
			t.Fatal(err)
		}
		<-entered
		var jobs []*Job
		for _, spec := range trace() {
			j, err := m.SubmitToken(spec, "")
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		close(gate)
		waitJob(t, m, barrier.ID, func(s Status) bool { return s == StatusDone }, "done")
		for _, j := range jobs {
			waitJob(t, m, j.ID, func(s Status) bool { return s == StatusDone }, "done")
		}
		return m.sched.Grants()
	}
	g1 := run(1)
	g8 := run(8)
	if len(g1) != len(g8) {
		t.Fatalf("grant counts differ: %d vs %d", len(g1), len(g8))
	}
	for i := range g1 {
		if g1[i] != g8[i] {
			t.Fatalf("grant %d differs: workers=1 granted %s, workers=8 granted %s\n1: %v\n8: %v",
				i, g1[i], g8[i], g1, g8)
		}
	}
}

// wideSpec is a multi-rung ASHA job with enough trials for a rung
// boundary to land while a rival backlog exists.
func wideSpec(tenant string) JobSpec {
	return JobSpec{
		Tenant:     tenant,
		Dataset:    "australian",
		Scale:      0.06,
		Method:     "asha",
		NumHPs:     2,
		MaxConfigs: 9,
		Iters:      2,
		Seed:       7,
	}
}

// TestPreemptResumeByteIdenticalCurve: a job preempted at a rung
// boundary and later resumed must finish with an anytime curve byte
// identical to a never-preempted twin. DeterministicTiming pins the
// curves' elapsed columns; the real evaluator (seeded synthesis,
// deterministic training) pins the scores.
func TestPreemptResumeByteIdenticalCurve(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	cfg := Config{
		PoolSize:            1,
		MaxJobs:             1,
		MaxPending:          256,
		DeterministicTiming: true,
		TenantWeights:       map[string]int{"victim": 1, "vip": 8},
	}
	cfgGate := cfg
	cfgGate.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
		if id != "job-1" {
			return inner
		}
		// Gate only the victim's first evaluation so the vip backlog is
		// in place before any rung completes.
		return &gateOnceEvaluator{inner: inner, gate: gate, entered: entered}
	}
	m := NewManager(cfgGate)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	victim, err := m.SubmitToken(wideSpec("victim"), "")
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	for i := 0; i < 6; i++ {
		if _, err := m.SubmitToken(tinySpec("vip", uint64(50+i)), ""); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	waitJob(t, m, victim.ID, func(s Status) bool { return s == StatusDone }, "done")
	snap := victim.Snapshot()
	if snap.Preemptions == 0 {
		t.Fatal("victim was never preempted; the test exercised nothing")
	}
	if got := m.Metrics().Preemptions; got == 0 {
		t.Error("Metrics().Preemptions = 0 after a preemption")
	}
	if got := m.Metrics().Resumes; got == 0 {
		t.Error("Metrics().Resumes = 0 after a resume")
	}

	// The twin runs the same spec alone on a fresh manager: same seeds,
	// same synthetic data, no preemption.
	m2 := NewManager(Config{
		PoolSize:            1,
		MaxJobs:             1,
		DeterministicTiming: true,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m2.Shutdown(ctx)
	})
	twin, err := m2.SubmitToken(wideSpec("victim"), "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m2, twin.ID, func(s Status) bool { return s == StatusDone }, "done")
	twinSnap := twin.Snapshot()
	if twinSnap.Preemptions != 0 {
		t.Fatalf("twin was preempted %d times; it must run alone", twinSnap.Preemptions)
	}
	got, err := json.Marshal(snap.Curve)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(twinSnap.Curve)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("preempted curve differs from solo twin\npreempted: %s\nsolo:      %s", got, want)
	}
	if snap.Evaluations != twinSnap.Evaluations {
		t.Errorf("evaluations differ: preempted %d vs solo %d", snap.Evaluations, twinSnap.Evaluations)
	}
}

// gateOnceEvaluator blocks only its first evaluation.
type gateOnceEvaluator struct {
	inner   hpo.Evaluator
	gate    chan struct{}
	entered chan struct{}
	done    bool
}

func (g *gateOnceEvaluator) FullBudget() int { return g.inner.FullBudget() }

func (g *gateOnceEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	if !g.done {
		g.done = true
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.gate
	}
	return g.inner.Evaluate(cfg, budget, r)
}

// TestTenantQuota429: the per-tenant queued-job quota sheds with a 429
// carrying the tenant name and a per-tenant Retry-After, while other
// tenants keep submitting freely; Metrics counts the quota sheds
// separately from global backpressure.
func TestTenantQuota429(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	first := true
	ts, m := newTestServer(t, Config{
		PoolSize:    1,
		MaxJobs:     1,
		MaxPending:  64,
		TenantQuota: 2,
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			ev := &instantEvaluator{inner: inner, gate: gate, gated: first, entered: entered}
			first = false
			return ev
		},
	})
	defer close(gate)

	// Job 1 runs (gated); jobs 2 and 3 fill tenant alpha's quota of 2
	// queued jobs.
	resp := postRaw(t, ts.URL, tinySpec("alpha", 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	<-entered
	for i := 0; i < 2; i++ {
		resp := postRaw(t, ts.URL, tinySpec("alpha", uint64(2+i)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queued job %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// The third queued submission breaches the quota.
	resp = postRaw(t, ts.URL, tinySpec("alpha", 9))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("over-quota 429 missing Retry-After")
	}
	var body struct {
		Error  string `json:"error"`
		Tenant string `json:"tenant"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Tenant != "alpha" {
		t.Errorf("429 body tenant = %q, want alpha", body.Tenant)
	}
	// Another tenant is unaffected by alpha's quota.
	resp2 := postRaw(t, ts.URL, tinySpec("beta", 1))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("beta submit: status %d, want 202", resp2.StatusCode)
	}
	resp2.Body.Close()
	if got := m.Metrics().QuotaShed; got != 1 {
		t.Errorf("QuotaShed = %d, want 1", got)
	}
}

// TestBatchAtomicAdmission: POST /jobs:batch admits all or nothing —
// a batch that would breach one tenant's quota registers zero jobs,
// and the same batch under quota registers all of them.
func TestBatchAtomicAdmission(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	first := true
	ts, m := newTestServer(t, Config{
		PoolSize:    1,
		MaxJobs:     1,
		MaxPending:  64,
		TenantQuota: 2,
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			ev := &instantEvaluator{inner: inner, gate: gate, gated: first, entered: entered}
			first = false
			return ev
		},
	})
	defer close(gate)

	// Occupy the run slot so batch items all count as queued.
	resp := postRaw(t, ts.URL, tinySpec("other", 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("barrier: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	<-entered

	postBatch := func(specs []JobSpec) *http.Response {
		t.Helper()
		payload, _ := json.Marshal(map[string]any{"jobs": specs})
		resp, err := http.Post(ts.URL+"/jobs:batch", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Three queued jobs for one tenant breach its quota of 2: the whole
	// batch — including the in-quota prefix — must be rejected.
	resp = postBatch([]JobSpec{tinySpec("gamma", 1), tinySpec("gamma", 2), tinySpec("gamma", 3)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota batch: status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
	for _, j := range m.Jobs() {
		if j.Spec.Tenant == "gamma" {
			t.Fatalf("over-quota batch leaked job %s: batches must admit all or nothing", j.ID)
		}
	}
	// Under quota the same tenant's batch lands whole.
	resp = postBatch([]JobSpec{tinySpec("gamma", 1), tinySpec("gamma", 2)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("in-quota batch: status %d, want 202", resp.StatusCode)
	}
	var ok struct {
		Jobs []Snapshot `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ok.Jobs) != 2 {
		t.Fatalf("in-quota batch returned %d snapshots, want 2", len(ok.Jobs))
	}
	for _, s := range ok.Jobs {
		if s.Tenant != "gamma" {
			t.Errorf("batch snapshot %s tenant = %q, want gamma", s.ID, s.Tenant)
		}
	}
	// A validation error reports the offending item's index and admits
	// nothing.
	bad := []JobSpec{tinySpec("delta", 1), {Tenant: "delta", Dataset: "nope", Method: "random"}}
	resp = postBatch(bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid batch: status %d, want 400", resp.StatusCode)
	}
	var errBody struct {
		Error string `json:"error"`
		Index *int   `json:"index"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if errBody.Index == nil || *errBody.Index != 1 {
		t.Errorf("invalid batch index = %v, want 1", errBody.Index)
	}
	for _, j := range m.Jobs() {
		if j.Spec.Tenant == "delta" {
			t.Fatalf("invalid batch leaked job %s", j.ID)
		}
	}
}

// TestTenantFilterAndStatus: GET /jobs?tenant=X filters the listing,
// snapshots carry the tenant, and GET /tenants reports per-tenant
// accounting.
func TestTenantFilterAndStatus(t *testing.T) {
	ts, m := newTestServer(t, Config{
		PoolSize:      1,
		MaxJobs:       2,
		TenantWeights: map[string]int{"x": 2},
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			return &instantEvaluator{inner: inner}
		},
	})
	jx, err := m.SubmitToken(tinySpec("x", 1), "")
	if err != nil {
		t.Fatal(err)
	}
	jy, err := m.SubmitToken(tinySpec("y", 1), "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, jx.ID, func(s Status) bool { return s == StatusDone }, "done")
	waitJob(t, m, jy.ID, func(s Status) bool { return s == StatusDone }, "done")

	var listing []Snapshot
	getJSON(t, ts.URL+"/jobs?tenant=x", &listing)
	if len(listing) != 1 || listing[0].ID != jx.ID {
		t.Fatalf("?tenant=x returned %+v, want exactly %s", listing, jx.ID)
	}
	if listing[0].Tenant != "x" {
		t.Errorf("snapshot tenant = %q, want x", listing[0].Tenant)
	}
	var tenants struct {
		Tenants []TenantStatus `json:"tenants"`
	}
	getJSON(t, ts.URL+"/tenants", &tenants)
	byName := map[string]TenantStatus{}
	for _, row := range tenants.Tenants {
		byName[row.Tenant] = row
	}
	x, okX := byName["x"]
	y, okY := byName["y"]
	if !okX || !okY {
		t.Fatalf("/tenants missing rows: %+v", tenants.Tenants)
	}
	if x.Weight != 2 || y.Weight != 1 {
		t.Errorf("weights x=%d y=%d, want 2 and 1", x.Weight, y.Weight)
	}
	if x.JobsDone != 1 || y.JobsDone != 1 {
		t.Errorf("jobs done x=%d y=%d, want 1 and 1", x.JobsDone, y.JobsDone)
	}
	if x.Evaluations == 0 || x.ServiceUnits == 0 {
		t.Errorf("tenant x accounting empty: %+v", x)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// TestPoolInflightGauge: pool_in_use, pool_inflight and the tenants'
// inflight_evals are one count of held evaluation slots — equal to true
// occupancy while evaluations hold slots, zero after.
func TestPoolInflightGauge(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	m := NewManager(Config{
		PoolSize: 2,
		MaxJobs:  2,
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			return &instantEvaluator{inner: inner, gate: gate, gated: true, entered: entered}
		},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	check := func(when string, want int) {
		t.Helper()
		mt := m.Metrics()
		if mt.PoolInUse != want || mt.PoolInflight != want {
			t.Errorf("PoolInUse = %d, PoolInflight = %d %s, want %d", mt.PoolInUse, mt.PoolInflight, when, want)
		}
		perTenant := 0
		for _, row := range m.Tenants() {
			perTenant += row.InflightEvals
		}
		if perTenant != want {
			t.Errorf("tenants' inflight_evals sum to %d %s, want %d", perTenant, when, want)
		}
	}
	j1, err := m.SubmitToken(tinySpec("a", 1), "")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.SubmitToken(tinySpec("b", 1), "")
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	<-entered
	check("with 2 gated evaluations", 2)
	close(gate)
	waitJob(t, m, j1.ID, func(s Status) bool { return s == StatusDone }, "done")
	waitJob(t, m, j2.ID, func(s Status) bool { return s == StatusDone }, "done")
	check("after all jobs done", 0)
}

// TestTenantAccountingSurvivesRestart: a journaled service restarted
// after multi-tenant traffic (including a preemption) rebuilds the
// per-tenant evaluation, service and preemption counters from the
// journal alone.
func TestTenantAccountingSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	cfg := Config{
		PoolSize:            1,
		MaxJobs:             1,
		MaxPending:          256,
		DataDir:             dir,
		DeterministicTiming: true,
		TenantWeights:       map[string]int{"victim": 1, "vip": 8},
	}
	cfgGate := cfg
	cfgGate.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
		if id != "job-1" {
			return inner
		}
		return &gateOnceEvaluator{inner: inner, gate: gate, entered: entered}
	}
	m1, err := NewManagerFromJournal(cfgGate)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := m1.SubmitToken(wideSpec("victim"), "")
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	var vips []*Job
	for i := 0; i < 4; i++ {
		j, err := m1.SubmitToken(tinySpec("vip", uint64(70+i)), "")
		if err != nil {
			t.Fatal(err)
		}
		vips = append(vips, j)
	}
	close(gate)
	waitJob(t, m1, victim.ID, func(s Status) bool { return s == StatusDone }, "done")
	for _, j := range vips {
		waitJob(t, m1, j.ID, func(s Status) bool { return s == StatusDone }, "done")
	}
	if victim.Snapshot().Preemptions == 0 {
		t.Fatal("victim was never preempted")
	}
	before := tenantRows(m1.Tenants())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManagerFromJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m2.Shutdown(ctx)
	})
	after := tenantRows(m2.Tenants())
	for _, name := range []string{"victim", "vip"} {
		b, a := before[name], after[name]
		if a.Evaluations != b.Evaluations {
			t.Errorf("%s evaluations: %d before restart, %d after", name, b.Evaluations, a.Evaluations)
		}
		if a.Preemptions != b.Preemptions {
			t.Errorf("%s preemptions: %d before restart, %d after", name, b.Preemptions, a.Preemptions)
		}
		if a.ServiceUnits != b.ServiceUnits {
			t.Errorf("%s service units: %.1f before restart, %.1f after", name, b.ServiceUnits, a.ServiceUnits)
		}
		if a.JobsDone != b.JobsDone {
			t.Errorf("%s jobs done: %d before restart, %d after", name, b.JobsDone, a.JobsDone)
		}
	}
	if after["victim"].Preemptions == 0 {
		t.Error("victim preemption count lost across restart")
	}
	// The restored job's own snapshot keeps its yield count too (the
	// result record carries it).
	restored, ok := m2.Get(victim.ID)
	if !ok {
		t.Fatalf("victim %s missing after restart", victim.ID)
	}
	if restored.Snapshot().Preemptions == 0 {
		t.Error("restored victim snapshot lost its preemptions count")
	}
}

func tenantRows(rows []TenantStatus) map[string]TenantStatus {
	out := make(map[string]TenantStatus, len(rows))
	for _, r := range rows {
		out[r.Tenant] = r
	}
	return out
}

// TestBatchDedup: resubmitting a batch under the same X-Submit-Token
// returns the originally registered jobs instead of duplicating them,
// and the same token re-sent with a longer or shorter batch — which
// cannot be that retry — is refused with 409 instead of answered with
// missing jobs or a silent prefix.
func TestBatchDedup(t *testing.T) {
	ts, m := newTestServer(t, Config{
		PoolSize: 1,
		MaxJobs:  2,
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			return &instantEvaluator{inner: inner}
		},
	})
	post := func(wantStatus int, specs ...JobSpec) []byte {
		t.Helper()
		payload, _ := json.Marshal(map[string]any{"jobs": specs})
		req, err := http.NewRequest("POST", ts.URL+"/jobs:batch", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Submit-Token", "batch-token-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("batch of %d: status %d, want %d: %s", len(specs), resp.StatusCode, wantStatus, body)
		}
		return body
	}
	accepted := func(body []byte) []Snapshot {
		t.Helper()
		var out struct {
			Jobs []Snapshot `json:"jobs"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out.Jobs
	}
	first := accepted(post(http.StatusAccepted, tinySpec("a", 1), tinySpec("a", 2)))
	second := accepted(post(http.StatusAccepted, tinySpec("a", 1), tinySpec("a", 2)))
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("batch sizes %d and %d, want 2 and 2", len(first), len(second))
	}
	for i := range first {
		if first[i].ID != second[i].ID {
			t.Errorf("replayed batch item %d got new job %s (was %s)", i, second[i].ID, first[i].ID)
		}
	}
	longer := post(http.StatusConflict, tinySpec("a", 1), tinySpec("a", 2), tinySpec("a", 3))
	if want := "accepted with 2 jobs, resent with 3"; !bytes.Contains(longer, []byte(want)) {
		t.Errorf("409 body %s does not say %q", longer, want)
	}
	shorter := post(http.StatusConflict, tinySpec("a", 1))
	if want := "accepted with 2 jobs, resent with 1"; !bytes.Contains(shorter, []byte(want)) {
		t.Errorf("409 body %s does not say %q", shorter, want)
	}
	if got := len(m.Jobs()); got != 2 {
		t.Errorf("job table has %d jobs after replayed batches, want 2", got)
	}
}
