package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"enhancedbhpo/internal/coord"
	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/serve"
	"enhancedbhpo/internal/serve/journal"
)

// workload is one of the benchmark's four traffic mixes. Sizes (scales,
// epochs, job counts, roundSeconds) were tuned once on a 2-vCPU box to
// the round lengths below and are frozen: changing one changes what every
// later measurement is compared against.
type workload struct {
	name string
	// roundSeconds is the nominal length of one round; a run of
	// --seconds S makes ⌊S/roundSeconds⌋ rounds.
	roundSeconds float64
	run          func(e *env, rounds int) (*runResult, error)
	// load is how the job list reaches a server: groups of jobs, each
	// either one closed-loop client or one POST /jobs:batch. The traced
	// run replays it against an in-process server built from cfg.
	load func(opt options) (groups [][]job, batch bool)
	cfg  serve.Config
}

var workloads = []*workload{
	{name: "solo-paper", roundSeconds: 3.3, load: soloLoad,
		run: singleNode("solo-paper", soloLoad, "-workers", "2"),
		cfg: serve.Config{PoolSize: 2}},
	{name: "tenants-contended", roundSeconds: 2.7, load: tenantLoad,
		run: singleNode("tenants-contended", tenantLoad, "-workers", "2", "-max-jobs", "4", "-tenant-weights", "gold=3,free=1"),
		cfg: serve.Config{PoolSize: 2, MaxJobs: 4, TenantWeights: map[string]int{"gold": 3, "free": 1}}},
	{name: "warm-resubmit", roundSeconds: 2.3, run: runWarm, load: warmLoad,
		cfg: serve.Config{PoolSize: 1}},
	{name: "crash-recover", roundSeconds: 2.3, run: runCrash, load: crashLoad,
		cfg: serve.Config{PoolSize: 2, MaxJobs: 1, MaxPending: 4096}},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// shuffled returns jobs in a submission order drawn from seed. The job
// multiset never changes with the seed — every job's outcome is pinned in
// golden.json — only the order the servers see it in.
func shuffled(jobs []job, seed uint64) []job {
	out := append([]job(nil), jobs...)
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// singleNode is the run function of a workload served by one bhpod
// started with args: every round is a nodeRound of the same load.
func singleNode(name string, load func(options) ([][]job, bool), args ...string) func(*env, int) (*runResult, error) {
	return func(e *env, n int) (*runResult, error) {
		groups, batch := load(e.opt)
		rounds, err := runRounds(e.opt, n, func(int) (*roundResult, error) {
			return e.nodeRound(args, groups, batch)
		})
		if err != nil {
			return nil, err
		}
		return aggregate(name, rounds), nil
	}
}

// nodeRound is one round against a single fresh bhpod: boot it on an
// empty data directory (that is the round's set-up), drive the load,
// check every job, read the CPU the daemon burned and its counters, kill
// it.
func (e *env) nodeRound(args []string, groups [][]job, batch bool) (*roundResult, error) {
	rr := newRound()
	dir := e.h.dir("node")
	defer os.RemoveAll(dir)
	t0 := time.Now()
	p, err := e.h.spawn(e.h.bhpod, e.bhpodArgs(dir, args...)...)
	if err != nil {
		return nil, err
	}
	defer p.kill()
	if err := p.waitHealthy(15 * time.Second); err != nil {
		return nil, err
	}
	rr.setup = time.Since(t0).Seconds()
	rr.counters["boot_ms"] = rr.setup * 1000
	cpu0 := p.cpuSeconds()
	start := time.Now()
	jobs, wants, outs, err := e.drive(p.url, groups, batch, e.want)
	if err != nil {
		return nil, err
	}
	rr.makespan = time.Since(start).Seconds()
	rr.cpu = p.cpuSeconds() - cpu0
	if err := e.settleAll(rr, p.url, jobs, wants, outs); err != nil {
		return nil, err
	}
	e.readCounters(rr, p.url)
	if e.opt.traced {
		e.readProc(rr, p)
		p.kill()
		inspectDir(rr, dir)
		if err := e.reboot(rr, dir, args); err != nil {
			return nil, err
		}
	}
	return rr, nil
}

// reboot starts a daemon on an already populated data directory and
// times it to healthy: bhpod.boot_replay_ms of the traced run.
func (e *env) reboot(rr *roundResult, dir string, args []string) error {
	t0 := time.Now()
	p, err := e.h.spawn(e.h.bhpod, e.bhpodArgs(dir, args...)...)
	if err != nil {
		return err
	}
	defer p.kill()
	if err := p.waitHealthy(30 * time.Second); err != nil {
		return err
	}
	rr.counters["boot_replay_ms"] = time.Since(t0).Seconds() * 1000
	return nil
}

// settleAll reads every job's final snapshot with one GET /jobs and
// checks it.
func (e *env) settleAll(rr *roundResult, base string, jobs []job, wants []*goldenJob, outs []*outcome) error {
	snaps, err := e.api.list(base)
	if err != nil {
		return err
	}
	for i, j := range jobs {
		e.settle(rr, j, wants[i], outs[i], snaps)
	}
	return nil
}

// ---- solo-paper ----

// soloJobs: SHA, SHA+, HB, HB+, BOHB, BOHB+ on satimage then a9a. Every
// job has its own cache scope (the dataset seed differs per method), as
// in the paper where each method runs alone on a cold cache; a vanilla
// job and its enhanced twin share the data.
func soloJobs(opt options) []job {
	var jobs []job
	for di, ds := range []string{"satimage", "a9a"} {
		for mi, m := range []string{"sha", "hyperband", "bohb"} {
			for _, enh := range []bool{false, true} {
				k := len(jobs)
				jobs = append(jobs, job{key: k, golden: fmt.Sprintf("solo-paper/%d", k), spec: serve.JobSpec{
					Dataset: ds, Method: m, Enhanced: enh, Scale: 0.2, Iters: 2,
					Seed: 1, DatasetSeed: uint64(101 + 10*di + mi),
				}})
			}
		}
	}
	if opt.short {
		jobs = jobs[:3]
	}
	return jobs
}

// soloLoad: one closed-loop client, one job in flight, seeded order.
func soloLoad(opt options) ([][]job, bool) {
	return [][]job{shuffled(soloJobs(opt), opt.seed)}, false
}

// ---- tenants-contended ----

// tenantJobs: gold (weight 3) and free (weight 1) each submit hyperband,
// sha, asha and bohb, enhanced, every job on its own cache scope so no
// tenant rides on the other's evaluations.
func tenantJobs(opt options) []job {
	var jobs []job
	for ti, tenant := range []string{"gold", "free"} {
		for mi, m := range []string{"hyperband", "sha", "asha", "bohb"} {
			k := len(jobs)
			spec := serve.JobSpec{
				Tenant: tenant, Dataset: "satimage", Method: m, Enhanced: true, Scale: 0.2, Iters: 6,
				Seed: 1, DatasetSeed: uint64(201 + 10*ti + mi),
			}
			if m == "asha" {
				spec.MaxConfigs = 27
			}
			jobs = append(jobs, job{key: k, golden: fmt.Sprintf("tenants-contended/%d", k), spec: spec})
		}
	}
	if opt.short {
		jobs = []job{jobs[1], jobs[5]}
	}
	return jobs
}

// tenantLoad: one batch per tenant, gold's posted first so which tenant
// holds the job slots when the other arrives is not a race. The order
// inside a batch is frozen and the seed unused: under contention the
// order decides who waits for whom (ten seeded orders moved
// time_to_target_s by ±11 % and job_wall_p50_s by ±8 % at equal
// makespan), so reordering is a different workload, not another sample
// of this one.
func tenantLoad(opt options) ([][]job, bool) {
	var groups [][]job
	all := tenantJobs(opt)
	for _, tenant := range []string{"gold", "free"} {
		var b []job
		for _, j := range all {
			if j.spec.Tenant == tenant {
				b = append(b, j)
			}
		}
		groups = append(groups, b)
	}
	return groups, true
}

// ---- warm-resubmit ----

// warmPerClient is N: how often each of the two clients resubmits.
const warmPerClient = 350

// tinySpec is the service-path probe: a model so small (55 rows, one
// epoch) that a warm resubmission is fourteen cache lookups plus a
// negligible refit, leaving the service layers as the cost.
func tinySpec(datasetSeed uint64) serve.JobSpec {
	return serve.JobSpec{
		Dataset: "australian", Method: "sha", Enhanced: true, Scale: 0.1, Iters: 1,
		MaxConfigs: 8, Seed: 1, DatasetSeed: datasetSeed,
	}
}

// warmScopes draws, from the run's seed, two dataset seeds whose cache
// scopes the coordinator's ring places on different nodes. Arbitrary
// scopes need not spread: four tried by hand all hashed to node b.
func warmScopes(seed uint64) [2]serve.JobSpec {
	ring := coord.NewRing(0)
	ring.Add("a")
	ring.Add("b")
	var out [2]serve.JobSpec
	found := map[string]bool{}
	for ds := 1 + seed*7919%100000; len(found) < 2; ds++ {
		spec := tinySpec(ds)
		owner := ring.Owner(spec.CacheScope())
		if found[owner] {
			continue
		}
		found[owner] = true
		out[map[string]int{"a": 0, "b": 1}[owner]] = spec
	}
	return out
}

// warmLoad: two closed-loop clients; each mixes the two scopes half and
// half in a seeded order.
func warmLoad(opt options) ([][]job, bool) {
	n := warmPerClient
	if opt.short {
		n /= 4
	}
	scopes := warmScopes(opt.seed)
	var groups [][]job
	for c := 0; c < 2; c++ {
		seq := make([]job, n)
		for i := range seq {
			seq[i] = job{spec: scopes[i%2]}
		}
		seq = shuffled(seq, opt.seed+uint64(c))
		for i := range seq {
			seq[i].key = c*n + i
		}
		groups = append(groups, seq)
	}
	return groups, false
}

// unreachable is the expected outcome of a job that only has to finish:
// a cold fill, whose result becomes the reference for what follows, or
// any job while -update-golden records what to expect.
var unreachable = &goldenJob{FinalIncumbent: math.Inf(1)}

func runWarm(e *env, n int) (*runResult, error) {
	groups, _ := warmLoad(e.opt)
	scopes := warmScopes(e.opt.seed)
	rounds, err := runRounds(e.opt, n, func(int) (*roundResult, error) {
		return e.warmRound(scopes, groups)
	})
	if err != nil {
		return nil, err
	}
	return aggregate("warm-resubmit", rounds), nil
}

func (e *env) warmRound(scopes [2]serve.JobSpec, groups [][]job) (*roundResult, error) {
	rr := newRound()
	root := e.h.dir("warm")
	defer os.RemoveAll(root)
	sink := filepath.Join(root, "sink")
	names := []string{"a", "b"}
	t0 := time.Now()
	var nodes []*proc
	for _, name := range names {
		p, err := e.h.spawn(e.h.bhpod, e.bhpodArgs(filepath.Join(root, name), "-workers", "1", "-node", name, "-ship-to", sink)...)
		if err != nil {
			return nil, err
		}
		defer p.kill()
		nodes = append(nodes, p)
	}
	for _, p := range nodes {
		if err := p.waitHealthy(15 * time.Second); err != nil {
			return nil, err
		}
	}
	rr.counters["boot_ms"] = time.Since(t0).Seconds() * 1000
	ctl, err := e.h.spawn(e.h.ctl, "-node", "a="+nodes[0].url, "-node", "b="+nodes[1].url)
	if err != nil {
		return nil, err
	}
	defer ctl.kill()
	if err := ctl.waitHealthy(15 * time.Second); err != nil {
		return nil, err
	}
	procs := append([]*proc{ctl}, nodes...)

	// Fill: one cold job per scope. Its outcome is the reference every
	// resubmission must reproduce, and its node-qualified ID proves the
	// two scopes landed on different nodes.
	refs := map[string]*goldenJob{}
	var fills []*outcome
	for i, spec := range scopes {
		o := e.runJob(ctl.url, job{spec: spec}, unreachable)
		rr.attempted++
		if o.err != nil {
			return nil, fmt.Errorf("warm-resubmit fill: %w", o.err)
		}
		if !strings.HasPrefix(o.id, names[i]+":") {
			return nil, fmt.Errorf("warm-resubmit: scope %d ran as %s, want node %s", i, o.id, names[i])
		}
		fills = append(fills, o)
	}
	snaps, err := e.api.list(ctl.url)
	if err != nil {
		return nil, err
	}
	for i, spec := range scopes {
		g, err := record(spec, fills[i], snaps[fills[i].id])
		if err != nil {
			return nil, fmt.Errorf("warm-resubmit fill: %w", err)
		}
		g.Ordered = false // the cold misses finish in another order than the hits
		refs[spec.CacheScope()] = &g
	}
	rr.setup = time.Since(t0).Seconds()

	cpu := func() (s float64) {
		for _, p := range procs {
			s += p.cpuSeconds()
		}
		return s
	}
	cpu0, coordCPU0 := cpu(), ctl.cpuSeconds()
	start := time.Now()
	jobs, wants, outs, err := e.drive(ctl.url, groups, false, func(j job) (*goldenJob, error) {
		return refs[j.spec.CacheScope()], nil
	})
	if err != nil {
		return nil, err
	}
	rr.makespan = time.Since(start).Seconds()
	rr.cpu = cpu() - cpu0
	rr.counters["coord_cpu_s"] = ctl.cpuSeconds() - coordCPU0
	if err := e.settleAll(rr, ctl.url, jobs, wants, outs); err != nil {
		return nil, err
	}
	if e.opt.traced {
		rr.counters["ship_catchup_ms"] = shipCatchup(root, sink, names)
	}
	for _, p := range nodes {
		e.readCounters(rr, p.url)
	}
	if e.opt.traced {
		for _, p := range procs {
			e.readProc(rr, p)
			p.kill()
		}
		for _, name := range names {
			inspectDir(rr, filepath.Join(root, name))
		}
		return rr, e.reboot(rr, filepath.Join(root, "a"), []string{"-workers", "1"})
	}
	return rr, nil
}

// shipCatchup waits until every node's journal bytes have reached the
// sink and returns how many milliseconds that took after the last job.
func shipCatchup(root, sink string, nodes []string) float64 {
	// A sink keeps a segment that is still growing as <name>.part.
	journalBytes := func(dir string) (n int64) {
		entries, _ := os.ReadDir(dir) // a missing sink directory is zero bytes shipped
		for _, ent := range entries {
			if strings.HasPrefix(ent.Name(), "journal-") || strings.HasPrefix(ent.Name(), "base-") {
				if info, err := ent.Info(); err == nil {
					n += info.Size()
				}
			}
		}
		return n
	}
	start := time.Now()
	for time.Since(start) < 5*time.Second {
		behind := false
		for _, n := range nodes {
			if journalBytes(filepath.Join(sink, n)) < journalBytes(filepath.Join(root, n)) {
				behind = true
			}
		}
		if !behind {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return time.Since(start).Seconds() * 1000
}

// ---- crash-recover ----

const (
	// crashFill is how many finished tiny jobs the snapshot holds.
	crashFill = 400
	// crashKillAt is the running job's curve point that triggers kill -9.
	crashKillAt = 5
	// crashTraces is how many finished jobs' traces are compared byte for
	// byte across the crash.
	crashTraces = 5
)

// crashJobs: the job that is running when the daemon dies (key 0, lost
// as "interrupted") and the three queued behind it, which the restarted
// daemon re-runs.
func crashJobs(opt options) []job {
	var jobs []job
	for i, m := range []string{"hyperband", "hyperband", "bohb", "sha"} {
		jobs = append(jobs, job{key: i, golden: fmt.Sprintf("crash-recover/%d", i), spec: serve.JobSpec{
			Dataset: "satimage", Method: m, Enhanced: i > 0, Scale: 0.2, Iters: 10,
			Seed: 1, DatasetSeed: uint64(301 + i),
		}})
	}
	if opt.short {
		jobs = jobs[:2]
	}
	return jobs
}

// crashLoad is what the traced run replays in process: the re-run jobs,
// queued behind each other on one job slot.
func crashLoad(opt options) ([][]job, bool) {
	return [][]job{crashJobs(opt)[1:]}, true
}

// crashSnapshot is the frozen on-disk state every round restarts on.
type crashSnapshot struct {
	dir     string
	fillIDs []string
	fill    serve.Snapshot    // what every finished tiny job must still look like
	traces  map[string][]byte // pre-crash GET /jobs/{id}/trace bodies
	realIDs []string          // running job first, then the queued ones
	bootMS  float64           // the filling daemon's boot on its empty directory
}

var crashArgs = []string{"-workers", "2", "-max-jobs", "1", "-max-pending", "4096"}

// buildSnapshot fills a daemon with finished tiny jobs (their data seed
// drawn from the run's seed), queues the real jobs behind one running
// job and kills it with SIGKILL the moment that job streams its
// crashKillAt-th curve point. The trigger is logical, so the snapshot is
// the same state every time; verify confirms it.
func (e *env) buildSnapshot(jobs []job) (*crashSnapshot, error) {
	nFill := crashFill
	if e.opt.short {
		nFill /= 4
	}
	snap := &crashSnapshot{dir: e.h.dir("snapshot"), traces: map[string][]byte{}}
	t0 := time.Now()
	p, err := e.h.spawn(e.h.bhpod, e.bhpodArgs(snap.dir, crashArgs...)...)
	if err != nil {
		return nil, err
	}
	defer p.kill()
	if err := p.waitHealthy(15 * time.Second); err != nil {
		return nil, err
	}
	snap.bootMS = time.Since(t0).Seconds() * 1000
	specs := make([]serve.JobSpec, nFill)
	for i := range specs {
		specs[i] = tinySpec(1 + e.opt.seed*104729%100000)
	}
	accepted, err := e.api.submitBatch(p.url, specs)
	if err != nil {
		return nil, err
	}
	for _, s := range accepted {
		snap.fillIDs = append(snap.fillIDs, s.ID)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var m serve.Metrics
		if err := e.api.getJSON(p.url+"/metrics", &m); err != nil {
			return nil, err
		}
		if m.JobsDone == nFill {
			break
		}
		if m.JobsFailed+m.JobsCancelled > 0 || time.Now().After(deadline) {
			return nil, fmt.Errorf("crash-recover fill: %d done, %d failed, %d cancelled of %d", m.JobsDone, m.JobsFailed, m.JobsCancelled, nFill)
		}
		time.Sleep(50 * time.Millisecond)
	}
	listed, err := e.api.list(p.url)
	if err != nil {
		return nil, err
	}
	snap.fill = listed[snap.fillIDs[0]]
	for _, id := range snap.fillIDs {
		if !sameResult(listed[id], snap.fill) {
			return nil, fmt.Errorf("crash-recover fill: %s differs from %s", id, snap.fillIDs[0])
		}
	}
	for i := 0; i < crashTraces; i++ {
		id := snap.fillIDs[i*(nFill-1)/(crashTraces-1)]
		body, err := e.api.getBytes(p.url + "/jobs/" + id + "/trace")
		if err != nil {
			return nil, err
		}
		snap.traces[id] = body
	}
	realSpecs := make([]serve.JobSpec, len(jobs))
	for i, j := range jobs {
		realSpecs[i] = j.spec
	}
	real, err := e.api.submitBatch(p.url, realSpecs)
	if err != nil {
		return nil, err
	}
	for _, s := range real {
		snap.realIDs = append(snap.realIDs, s.ID)
	}
	o := newOutcome()
	points := 0
	o.hook = func(ev events.Event) {
		if ev.Type == events.TypeCurvePoint {
			if points++; points == crashKillAt {
				p.kill()
			}
		}
	}
	e.api.follow(p.url, snap.realIDs[0], time.Now(), math.Inf(1), o)
	if points < crashKillAt {
		return nil, fmt.Errorf("crash-recover: running job ended after %d curve points, before the kill trigger: %v", points, o.err)
	}
	return snap, snap.verify(nFill)
}

// verify replays the snapshot's journal and checks the logical state:
// every tiny job done, the first real job running, the rest queued.
func (s *crashSnapshot) verify(nFill int) error {
	states, err := journal.Replay(s.dir)
	if err != nil {
		return err
	}
	byID := map[string]journal.JobState{}
	for _, st := range states {
		byID[st.ID] = st
	}
	if len(states) != nFill+len(s.realIDs) {
		return fmt.Errorf("snapshot holds %d jobs, want %d", len(states), nFill+len(s.realIDs))
	}
	for _, id := range s.fillIDs {
		if byID[id].Status != string(serve.StatusDone) {
			return fmt.Errorf("snapshot: %s is %q, want done", id, byID[id].Status)
		}
	}
	for i, id := range s.realIDs {
		st := byID[id]
		if i == 0 && (st.Status != string(serve.StatusRunning) || len(st.Checkpoint) > 0) {
			return fmt.Errorf("snapshot: %s is %q, want running without a checkpoint", id, st.Status)
		}
		if i > 0 && st.Status != "" && st.Status != string(serve.StatusQueued) {
			return fmt.Errorf("snapshot: %s is %q, want queued", id, st.Status)
		}
	}
	return nil
}

// sameResult compares what a finished job reports.
func sameResult(a, b serve.Snapshot) bool {
	return a.Status == serve.StatusDone && b.Status == serve.StatusDone &&
		a.Evaluations == b.Evaluations && a.BestScore != nil && b.BestScore != nil &&
		*a.BestScore == *b.BestScore && canon(a.BestConfig) == canon(b.BestConfig)
}

func runCrash(e *env, n int) (*runResult, error) {
	jobs := crashJobs(e.opt)
	// The snapshot is built twice and setup_s is the faster build: it is
	// 800 fsyncs long, and one build alone spread 40 % run to run.
	var snap *crashSnapshot
	setup := math.Inf(1)
	for built, failures := 0, 0; built < 2; {
		t0 := time.Now()
		s, err := e.buildSnapshot(jobs)
		if err != nil {
			if failures++; failures == 3 {
				return nil, fmt.Errorf("crash-recover: %d snapshot builds failed: %w", failures, err)
			}
			fmt.Fprintf(os.Stderr, "bench: crash-recover: snapshot build: %v\n", err)
			continue
		}
		setup = math.Min(setup, time.Since(t0).Seconds())
		if snap != nil {
			os.RemoveAll(snap.dir)
		}
		snap = s
		built++
	}
	rounds, err := runRounds(e.opt, n, func(int) (*roundResult, error) {
		rr, err := e.crashRound(snap, jobs)
		if rr != nil {
			rr.setup = setup // the run's one set-up, whichever round asks
		}
		return rr, err
	})
	if err != nil {
		return nil, err
	}
	return aggregate("crash-recover", rounds), nil
}

// crashRound restarts a daemon on a copy of the snapshot. Timings count
// from the exec: first_point is the first new curve point of the re-run
// work, a job's wall is exec → its terminal event, the makespan exec →
// the last one. They are read off the server's event timestamps.
func (e *env) crashRound(snap *crashSnapshot, jobs []job) (*roundResult, error) {
	rr := newRound()
	dir := e.h.dir("recover")
	defer os.RemoveAll(dir)
	if err := copyTree(snap.dir, dir); err != nil {
		return nil, err
	}
	if e.opt.traced {
		inspectDir(rr, dir)
	}
	rerun := jobs[1:]
	wants := make([]*goldenJob, len(rerun))
	for i, j := range rerun {
		w, err := e.want(j)
		if err != nil {
			return nil, err
		}
		wants[i] = w
	}
	t0 := time.Now()
	p, err := e.h.spawn(e.h.bhpod, e.bhpodArgs(dir, crashArgs...)...)
	if err != nil {
		return nil, err
	}
	defer p.kill()
	if err := p.waitHealthy(30 * time.Second); err != nil {
		return nil, err
	}
	rr.counters["boot_replay_ms"] = time.Since(t0).Seconds() * 1000
	rr.counters["boot_ms"] = snap.bootMS
	// The re-run jobs are already executing; follow each on its own
	// stream, timed by the server's clock from the exec.
	clock := &api{http: e.api.http, serverClock: true}
	outs := make([]*outcome, len(rerun))
	done := make(chan int, len(rerun)) // one send per followed job
	for i := range rerun {
		outs[i] = newOutcome()
		go func(i int) {
			clock.follow(p.url, snap.realIDs[i+1], t0, wants[i].target(), outs[i])
			done <- i
		}(i)
	}
	for range rerun {
		<-done
	}
	rr.cpu = p.cpuSeconds()
	first := math.NaN()
	for _, o := range outs {
		if math.IsNaN(first) || o.firstPoint < first {
			first = o.firstPoint
		}
		if o.wall > rr.makespan {
			rr.makespan = o.wall
		}
	}
	for _, o := range outs {
		o.firstPoint = first
	}
	listed, err := e.api.list(p.url)
	if err != nil {
		return nil, err
	}
	for i, j := range rerun {
		e.settle(rr, j, wants[i], outs[i], listed)
	}
	rr.attempted++
	if lost := listed[snap.realIDs[0]]; lost.Status != serve.StatusCancelled || lost.Reason != serve.ReasonInterrupted {
		rr.fail(1, "interrupted job %s came back %s/%s", lost.ID, lost.Status, lost.Reason)
	}
	rr.attempted += len(snap.fillIDs)
	for _, id := range snap.fillIDs {
		if !sameResult(listed[id], snap.fill) {
			rr.fail(1, "restored job %s differs from its pre-crash result", id)
		}
	}
	rr.attempted += len(snap.traces)
	for id, before := range snap.traces {
		after, err := e.api.getBytes(p.url + "/jobs/" + id + "/trace")
		if err != nil || !bytes.Equal(before, after) {
			rr.fail(1, "trace of %s is not byte-identical across the crash (%v)", id, err)
		}
	}
	e.readCounters(rr, p.url)
	if e.opt.traced {
		e.readProc(rr, p)
	}
	return rr, nil
}

// copyTree copies the regular files of src into dst, recursively.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
