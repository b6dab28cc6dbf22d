package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"enhancedbhpo/internal/serve"
)

// options are one benchmark invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	// short quarters the job lists and runs two rounds: the mode go test
	// uses to keep the harness and the golden check alive.
	short bool
	// updateGolden records outcomes into golden.json instead of checking.
	updateGolden bool
	// traced marks the process rounds of the traced run: bhpod starts with
	// -pprof (its MemStats are read) and each round's data directory is
	// inspected before it is removed.
	traced bool
	// rounds, when positive, overrides seconds/roundSeconds.
	rounds int
}

// sample is one job's timings in one round, seconds since its submit.
type sample struct{ wall, first, target float64 }

// roundResult is one round of a workload: fresh processes, fresh data
// directory, the same seeded job list.
type roundResult struct {
	setup, makespan, cpu float64
	jobs                 map[int]sample
	attempted, failed    int
	notes                []string
	// counters are read from the servers at the end of the round; the
	// traced run reports them per layer.
	counters map[string]float64
}

func newRound() *roundResult {
	return &roundResult{jobs: map[int]sample{}, counters: map[string]float64{}}
}

// fail records failed jobs with the reason, keeping the report short.
func (rr *roundResult) fail(n int, format string, args ...any) {
	rr.failed += n
	if len(rr.notes) < 8 {
		rr.notes = append(rr.notes, fmt.Sprintf(format, args...))
	}
}

// env is what a workload's round function works with.
type env struct {
	h      *harness
	api    *api
	opt    options
	golden goldenFile
	// recorded collects golden entries under -update-golden.
	recorded goldenFile
	mu       sync.Mutex
}

// want resolves the expected outcome of a golden-checked job; under
// -update-golden there is none yet and the target is unreachable.
func (e *env) want(j job) (*goldenJob, error) {
	if e.opt.updateGolden {
		return unreachable, nil
	}
	g, ok := e.golden[j.golden]
	if !ok {
		return nil, fmt.Errorf("no golden entry %q (run -update-golden)", j.golden)
	}
	return &g, nil
}

// settle checks one finished job against its expected outcome and, when
// it is correct, keeps its timings.
func (e *env) settle(rr *roundResult, j job, want *goldenJob, o *outcome, snaps map[string]serve.Snapshot) {
	rr.attempted++
	snap, ok := snaps[o.id]
	if o.err == nil && !ok {
		o.err = fmt.Errorf("job %s missing from GET /jobs", o.id)
	}
	if e.opt.updateGolden && j.golden != "" {
		g, err := record(j.spec, o, snap)
		if err != nil {
			rr.fail(1, "%s: %v", j.golden, err)
			return
		}
		e.mu.Lock()
		e.recorded[j.golden] = g
		e.mu.Unlock()
	} else if bad := want.check(o, snap); len(bad) > 0 {
		rr.fail(1, "job %d (%s %s): %v", j.key, j.spec.Method, j.spec.Dataset, bad)
		return
	}
	rr.jobs[j.key] = sample{o.wall, o.firstPoint, o.toTarget}
}

// runJob is one closed-loop step: submit, follow the event stream to its
// end. The snapshot check happens after the round, from one GET /jobs.
func (e *env) runJob(base string, j job, want *goldenJob) *outcome {
	o := newOutcome()
	t0 := time.Now()
	snap, err := e.api.submit(base, j.spec)
	if err != nil {
		o.err = err
		return o
	}
	o.t0, o.submitted, o.submitSeconds = t0, snap.SubmittedAt, time.Since(t0).Seconds()
	e.api.follow(base, snap.ID, t0, want.target(), o)
	return o
}

// drive puts a job list on a server the way its workload does. Closed
// loop: every group is one client that submits its next job when the
// previous one's event stream has closed. Batch: every group is posted
// with one POST /jobs:batch, one group after the other so the order the
// scheduler sees them in is not a race, and every job is then followed on
// its own stream. It returns the jobs in submission order with what each
// should have produced and what the clients saw.
func (e *env) drive(base string, groups [][]job, batch bool, want func(job) (*goldenJob, error)) ([]job, []*goldenJob, []*outcome, error) {
	var jobs []job
	for _, g := range groups {
		jobs = append(jobs, g...)
	}
	wants := make([]*goldenJob, len(jobs))
	outs := make([]*outcome, len(jobs))
	for i, j := range jobs {
		w, err := want(j)
		if err != nil {
			return nil, nil, nil, err
		}
		wants[i] = w
	}
	var wg sync.WaitGroup
	at := 0
	for _, g := range groups {
		lo := at
		at += len(g)
		if !batch {
			wg.Add(1)
			go func(g []job) {
				defer wg.Done()
				for i, j := range g {
					outs[lo+i] = e.runJob(base, j, wants[lo+i])
				}
			}(g)
			continue
		}
		specs := make([]serve.JobSpec, len(g))
		for i, j := range g {
			specs[i] = j.spec
		}
		t0 := time.Now()
		snaps, err := e.api.submitBatch(base, specs)
		if err != nil {
			wg.Wait()
			return nil, nil, nil, err
		}
		took := time.Since(t0).Seconds()
		for i := range g {
			o := newOutcome()
			o.t0, o.submitted, o.submitSeconds = t0, snaps[i].SubmittedAt, took
			outs[lo+i] = o
			wg.Add(1)
			go func(id string, w *goldenJob) {
				defer wg.Done()
				e.api.follow(base, id, t0, w.target(), o)
			}(snaps[i].ID, wants[lo+i])
		}
	}
	wg.Wait()
	return jobs, wants, outs, nil
}

// bhpodArgs prepends the flags every daemon of the benchmark gets.
func (e *env) bhpodArgs(dataDir string, args ...string) []string {
	out := []string{"-data-dir", dataDir}
	if e.opt.traced {
		out = append(out, "-pprof")
	}
	return append(out, args...)
}

// readCounters adds a daemon's /metrics counters to the round.
func (e *env) readCounters(rr *roundResult, base string) {
	var m serve.Metrics
	if err := e.api.getJSON(base+"/metrics", &m); err != nil {
		return
	}
	add := func(k string, v float64) { rr.counters[k] += v }
	add("evals_fused", float64(m.EvalsFused))
	add("fuse_fallbacks", float64(m.FuseFallbacks))
	add("preemptions", float64(m.Preemptions))
	add("cache_hits", float64(m.CacheHits))
	add("cache_misses", float64(m.CacheMisses))
	add("events_published", float64(m.EventsPublished))
	add("events_dropped", float64(m.EventsDropped))
	add("ship_bytes", float64(m.ShipBytes))
	add("ship_segments", float64(m.SegmentsShipped))
	add("ship_retries", float64(m.ShipRetries))
	add("trace_bytes", float64(m.TraceStoreBytes))
	add("jobs", float64(m.JobsDone+m.JobsFailed+m.JobsCancelled))
}

// runResult is a whole benchmark run of one workload.
type runResult struct {
	rounds            []*roundResult
	attempted, failed int
	correct           bool
	metrics           map[string]float64
	// noise is median round makespan ÷ fastest round makespan.
	noise float64
	notes []string
}

// roundCount is R: how many rounds fit the measuring time, at least two.
func roundCount(opt options, roundSeconds float64) int {
	if opt.rounds > 0 {
		return opt.rounds
	}
	if opt.short || opt.updateGolden {
		return 2
	}
	n := int(opt.seconds / roundSeconds)
	if n < 2 {
		n = 2
	}
	return n
}

// runRounds runs up to n rounds, stopping early (after at least two)
// only when the next round would overrun the measuring time: a host much
// slower than the one the sizes were frozen on.
func runRounds(opt options, n int, round func(i int) (*roundResult, error)) ([]*roundResult, error) {
	var out []*roundResult
	start := time.Now()
	for i := 0; i < n; i++ {
		if i >= 2 && !opt.short && opt.rounds == 0 {
			per := time.Since(start).Seconds() / float64(i)
			if time.Since(start).Seconds()+per > opt.seconds {
				break
			}
		}
		rr, err := round(i)
		if err != nil {
			return nil, err
		}
		out = append(out, rr)
	}
	return out, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedInts(set map[int]struct{}) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// lowQ is the lower quartile of v: the value at rank ⌊n/4⌋ of the sorted
// samples (the minimum for fewer than four).
func lowQ(v []float64) float64 { return percentile(v, 0.25) }

// aggregate reduces the rounds to the end-to-end metrics. The work per
// job key is deterministic, so what differs between rounds is the host:
// mostly interference, which only adds time, but now and then a lucky
// sample too (a race the scheduler resolves early, a boot that finds its
// pages cached). Every timing is therefore the lower quartile across
// rounds — per job key before jobs are combined. Over ten-run series it
// was steadier than the minimum (which rare lucky samples moved by up to
// 30 % on tenants-contended's first_point_p50_s and setup_s) and as deaf
// to interference as long as fewer than three rounds in four are hit.
func aggregate(name string, rounds []*roundResult) *runResult {
	res := &runResult{rounds: rounds, metrics: map[string]float64{}}
	var setups, spans, cpus []float64
	keys := map[int]struct{}{}
	for _, rr := range rounds {
		res.attempted += rr.attempted
		res.failed += rr.failed
		res.notes = append(res.notes, rr.notes...)
		setups = append(setups, rr.setup)
		spans = append(spans, rr.makespan)
		cpus = append(cpus, rr.cpu)
		for k := range rr.jobs {
			keys[k] = struct{}{}
		}
		if os.Getenv("BENCH_VERBOSE") != "" {
			fmt.Fprintf(os.Stderr, "bench: %s round: setup %.4f makespan %.4f cpu %.2f counters %v\n", name, rr.setup, rr.makespan, rr.cpu, rr.counters)
		}
	}
	var walls, firsts []float64
	target := 0.0
	for _, k := range sortedInts(keys) {
		var w, f, t []float64
		for _, rr := range rounds {
			if s, ok := rr.jobs[k]; ok {
				w, f, t = append(w, s.wall), append(f, s.first), append(t, s.target)
			}
		}
		walls = append(walls, lowQ(w))
		firsts = append(firsts, lowQ(f))
		target += lowQ(t)
		if os.Getenv("BENCH_VERBOSE") != "" && len(keys) <= 32 {
			fmt.Fprintf(os.Stderr, "bench: %s job %d: wall %.4f first %.4f target %.4f (lower quartile of %d rounds)\n", name, k, lowQ(w), lowQ(f), lowQ(t), len(w))
		}
	}
	res.metrics["setup_s"] = lowQ(setups)
	res.metrics["makespan_s"] = lowQ(spans)
	res.metrics["job_wall_p50_s"] = median(walls)
	res.metrics["first_point_p50_s"] = median(firsts)
	res.metrics["time_to_target_s"] = target
	res.metrics["cpu_s"] = lowQ(cpus)
	res.noise = median(spans) / slices.Min(spans)
	res.correct = res.failed == 0 && res.attempted > 0
	for _, v := range res.metrics {
		if math.IsNaN(v) || v <= 0 {
			res.correct = false
		}
	}
	return res
}

// runE2E runs one workload's end-to-end measurement.
func runE2E(h *harness, w *workload, opt options) (*runResult, error) {
	e := &env{h: h, api: &api{http: h.http}, opt: opt, recorded: goldenFile{}}
	if !opt.updateGolden {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		e.golden = g
	}
	res, err := w.run(e, roundCount(opt, w.roundSeconds))
	if err != nil {
		return nil, err
	}
	if opt.updateGolden {
		if res.failed > 0 {
			return res, fmt.Errorf("%s: %d jobs failed while recording golden outcomes: %v", w.name, res.failed, res.notes)
		}
		g, err := loadGolden()
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		if g == nil {
			g = goldenFile{}
		}
		for k, v := range e.recorded {
			g[k] = v
		}
		if err := g.save(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
