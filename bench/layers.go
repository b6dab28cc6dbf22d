package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"enhancedbhpo/internal/coord"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/serve"
	"enhancedbhpo/internal/serve/journal"
	"enhancedbhpo/internal/serve/sched"
	"enhancedbhpo/internal/serve/tracestore"
)

// This file measures single layers directly: calls into one package at a
// time, fed with the records, events and shapes the workload produced.

// percentile returns the p-quantile (0..1) of v, nearest rank.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(p * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// readProc adds a server process's memory figures to the round: VmHWM
// from /proc and, where the process mounts pprof (bhpod -pprof), the
// MemStats block of /debug/pprof/heap?debug=1.
func (e *env) readProc(rr *roundResult, p *proc) {
	rr.counters["peak_rss_mb"] += p.peakRSSMB()
	body, err := e.api.getBytes(p.url + "/debug/pprof/heap?debug=1")
	if err != nil {
		return // bhpoctl has no pprof endpoint
	}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		if name == "PauseNs" {
			// The runtime's ring of the last 256 stop-the-world pauses.
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				ns, _ := strconv.ParseFloat(f, 64)
				rr.counters["gc_pause_ms"] += ns / 1e6
			}
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "TotalAlloc":
			rr.counters["alloc_mb"] += v / (1 << 20)
		case "NumGC":
			rr.counters["gc_count"] += v
		}
	}
}

// journalRecords decodes every record of a data directory's journal
// files (bases and segments), in file order.
func journalRecords(dir string) []journal.Record {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var recs []journal.Record
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".jsonl") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			continue
		}
		dec := json.NewDecoder(bufio.NewReader(f))
		for {
			var rec journal.Record
			if err := dec.Decode(&rec); err != nil {
				break // io.EOF, or a torn tail after kill -9
			}
			recs = append(recs, rec)
		}
		f.Close()
	}
	return recs
}

// inspectDir reads a daemon's data directory the way a restarting daemon
// does — journal.Replay, then every job's trace — and adds what that cost
// and what the directory holds to the round's counters.
func inspectDir(rr *roundResult, dir string) {
	t0 := time.Now()
	states, err := journal.Replay(dir)
	if err != nil {
		return
	}
	rr.counters["journal_replay_ms"] += time.Since(t0).Seconds() * 1000
	rr.counters["journal_replay_jobs"] += float64(len(states))
	for _, rec := range journalRecords(dir) {
		if rec.Type == journal.TypeResult || rec.Type == journal.TypePreempt {
			rr.counters["journal_fsync_records"]++
		}
	}
	st := journal.DirStats(dir)
	rr.counters["journal_dir_bytes"] += float64(st.Bytes)
	// A fresh directory holds one base and one active segment.
	if st.Segments > 2 {
		rr.counters["journal_rotations"] += float64(st.Segments - 2)
	}
	t0 = time.Now()
	for _, s := range states {
		_, _ = tracestore.Read(serve.TraceDir(dir), s.ID) // timed, not used: a missing trace is an empty one
	}
	rr.counters["trace_read_ms"] += time.Since(t0).Seconds() * 1000
}

// measureJournal appends the run's own journal records to a fresh
// journal, one timed call each.
func measureJournal(dir string, recs []journal.Record, out map[string]float64) error {
	w, err := journal.OpenOptions(dir, journal.Options{MaxBytes: 4 << 20})
	if err != nil {
		return err
	}
	var ms []float64
	for _, rec := range recs {
		t0 := time.Now()
		if err := w.Append(rec); err != nil {
			w.Close()
			return err
		}
		ms = append(ms, time.Since(t0).Seconds()*1000)
	}
	out["journal.append_ms_p50"] = percentile(ms, 0.5)
	out["journal.append_ms_p99"] = percentile(ms, 0.99)
	return w.Close()
}

// measureTraceStore appends the run's own events to a fresh trace store.
// Terminal events fsync and close the job's file; the rest only write.
func measureTraceStore(dir string, evs []events.Event, out map[string]float64) error {
	st, err := tracestore.Open(dir, tracestore.Options{})
	if err != nil {
		return err
	}
	var appendUS, fsyncMS []float64
	for _, ev := range evs {
		t0 := time.Now()
		if err := st.Append(ev); err != nil {
			st.Close()
			return err
		}
		d := time.Since(t0).Seconds()
		if ev.Terminal {
			fsyncMS = append(fsyncMS, d*1000)
		} else {
			appendUS = append(appendUS, d*1e6)
		}
	}
	out["tracestore.append_us_p50"] = percentile(appendUS, 0.5)
	out["tracestore.fsync_ms_p50"] = percentile(fsyncMS, 0.5)
	return st.Close()
}

// measureHub publishes the run's own events through a hub with no sink
// and no subscriber: the cost of sequencing and retaining one event.
func measureHub(evs []events.Event, out map[string]float64) {
	hub := events.NewHub(events.Options{})
	var us []float64
	for _, ev := range evs {
		id := ev.JobID
		ev.Seq, ev.JobID = 0, ""
		t0 := time.Now()
		hub.Publish(id, ev)
		us = append(us, time.Since(t0).Seconds()*1e6)
	}
	out["events.publish_us_p50"] = percentile(us, 0.5)
}

// measureSched replays the workload's admissions, grants and charges on
// a scheduler of its own: enqueue every job, then release slot after
// slot (each release grants the next waiter in weighted-fair order), and
// charge every streamed trial's budget to its tenant.
func measureSched(cfg serve.Config, jobs []job, evs []events.Event, out map[string]float64) {
	slots := cfg.MaxJobs
	if slots <= 0 {
		slots = 4
	}
	s := sched.New(sched.Config{Slots: slots, MaxQueued: 1 << 20, DefaultWeight: 1, Weights: cfg.TenantWeights})
	tenantOf := func(j job) string {
		if j.spec.Tenant == "" {
			return serve.DefaultTenant
		}
		return j.spec.Tenant
	}
	tickets := map[string]*sched.Ticket{}
	var enqueueUS, grantUS, chargeUS []float64
	for i, j := range jobs {
		id := fmt.Sprintf("job-%d", i+1)
		t0 := time.Now()
		tk, err := s.Enqueue(tenantOf(j), id, false)
		enqueueUS = append(enqueueUS, time.Since(t0).Seconds()*1e6)
		if err == nil {
			tickets[id] = tk
		}
	}
	for released := 0; released < len(tickets); released++ {
		id := s.Grants()[released]
		waiting := s.Queued() > 0
		t0 := time.Now()
		s.Release(tickets[id])
		if waiting {
			grantUS = append(grantUS, time.Since(t0).Seconds()*1e6)
		}
	}
	tenantByJob := map[string]string{}
	prev := map[string]int{}
	for _, ev := range evs {
		if ev.Type != events.TypeCurvePoint || ev.Point == nil {
			continue
		}
		tenant, ok := tenantByJob[ev.JobID]
		if !ok {
			tenant = serve.DefaultTenant
			var n int
			if _, err := fmt.Sscanf(ev.JobID, "job-%d", &n); err == nil && n >= 1 && n <= len(jobs) {
				tenant = tenantOf(jobs[n-1])
			}
			tenantByJob[ev.JobID] = tenant
		}
		budget := ev.Point.CumBudget - prev[ev.JobID]
		prev[ev.JobID] = ev.Point.CumBudget
		t0 := time.Now()
		s.Charge(tenant, float64(budget))
		chargeUS = append(chargeUS, time.Since(t0).Seconds()*1e6)
	}
	out["sched.enqueue_us_p50"] = percentile(enqueueUS, 0.5)
	out["sched.grant_us_p50"] = percentile(grantUS, 0.5)
	out["sched.charge_us_p50"] = percentile(chargeUS, 0.5)
}

// measureRing times the coordinator's placement lookup on the workload's
// own cache scopes.
func measureRing(jobs []job, out map[string]float64) {
	ring := coord.NewRing(0)
	ring.Add("a")
	ring.Add("b")
	scopes := make([]string, len(jobs))
	for i, j := range jobs {
		scopes[i] = j.spec.CacheScope()
	}
	const lookups = 20000
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		ring.Owner(scopes[i%len(scopes)])
	}
	out["coord.ring_lookup_us"] = time.Since(t0).Seconds() * 1e6 / lookups
}

// fitSample is one training call the traced evaluator saw: enough to
// repeat it.
type fitSample struct {
	train *dataset.Dataset
	cfg   nn.Config
}

// shape is the (batch rows, inputs, first hidden width) of a fit: the
// operands of its first-layer matmuls.
func (f fitSample) shape() [3]int {
	rows := f.cfg.BatchSize
	if rows > f.train.Len() || f.cfg.Solver == nn.LBFGS {
		rows = f.train.Len()
	}
	return [3]int{rows, f.train.Features(), f.cfg.HiddenLayerSizes[0]}
}

// fitStats counts the training calls of a run by shape and keeps two
// samples of each shape (a sample holds its training rows).
type fitStats struct {
	count   map[[3]int]int
	samples map[[3]int][]fitSample
}

func newFitStats() *fitStats {
	return &fitStats{count: map[[3]int]int{}, samples: map[[3]int][]fitSample{}}
}

func (s *fitStats) add(f fitSample) {
	sh := f.shape()
	s.count[sh]++
	if len(s.samples[sh]) < 2 {
		s.samples[sh] = append(s.samples[sh], f)
	}
}

// modal returns two samples of the most frequent shape (the same sample
// twice when the shape occurred once); ok is false when nothing was
// recorded.
func (s *fitStats) modal() (a, b fitSample, ok bool) {
	var best [3]int
	for sh, n := range s.count {
		if n > s.count[best] || (n == s.count[best] && fmt.Sprint(sh) < fmt.Sprint(best)) {
			best = sh
		}
	}
	picked := s.samples[best]
	if len(picked) == 0 {
		return a, b, false
	}
	return picked[0], picked[len(picked)-1], true
}

// timeIt runs f repeatedly for about budget and returns seconds per call,
// as the minimum over batches of calls (the undisturbed cost).
func timeIt(budget time.Duration, f func()) float64 {
	f() // warm caches and scratch
	best := 0.0
	deadline := time.Now().Add(budget)
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0).Seconds(); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// measureMat times the three matmul kernels at the workload's modal
// first-layer shape, single-threaded as inside a pooled evaluation.
func measureMat(s [3]int, out map[string]float64) {
	rows, in, hid := s[0], s[1], s[2]
	fill := func(m *mat.Dense) *mat.Dense {
		d := m.Data()
		for i := range d {
			d[i] = float64(i%17) * 0.25
		}
		return m
	}
	x, w := fill(mat.NewDense(rows, in)), fill(mat.NewDense(in, hid))
	delta := fill(mat.NewDense(rows, hid))
	act, grad, back := mat.NewDense(rows, hid), mat.NewDense(in, hid), mat.NewDense(rows, in)
	flops := 2 * float64(rows) * float64(in) * float64(hid)
	// Batch enough calls per timing that the clock read is negligible.
	reps := 1 + int(2e6/flops)
	per := func(f func()) float64 {
		return timeIt(40*time.Millisecond, func() {
			for i := 0; i < reps; i++ {
				f()
			}
		}) / float64(reps)
	}
	out["mat.mul_gflops"] = flops / per(func() { mat.MulWorkers(act, x, w, 1) }) / 1e9
	out["mat.tmul_gflops"] = flops / per(func() { mat.TMulWorkers(grad, x, delta, 1) }) / 1e9
	out["mat.mult_gflops"] = flops / per(func() { mat.MulTWorkers(back, delta, w, 1) }) / 1e9
}

// fitOnce repeats a recorded training call with kw kernel workers.
func fitOnce(s fitSample, kw int) {
	cfg := s.cfg
	cfg.KernelWorkers = kw
	_, _ = nn.Fit(s.train, cfg) // the same call succeeded in the traced run
}

const ratioBudget = 150 * time.Millisecond

// measureKernelWorkers puts a number on PR 8's row-parallel kernels, on
// the workload's modal training call: the fit with two kernel workers
// over the same fit with one. Below 1 the feature wins.
func measureKernelWorkers(a fitSample, out map[string]float64) {
	kw1 := timeIt(ratioBudget, func() { fitOnce(a, 1) })
	kw2 := timeIt(ratioBudget, func() { fitOnce(a, 2) })
	out["nn.fit_kw2_over_kw1"] = kw2 / kw1
}

// measureFusedFit puts a number on PR 8's fused training, on the modal
// lockstep-capable (not L-BFGS) training call: two fits in one FitBatch
// over the same two fits solo, side by side on two goroutines — what the
// fuser replaces. Below 1 the feature wins.
func measureFusedFit(a, b fitSample, out map[string]float64) {
	solo := timeIt(ratioBudget, func() {
		var wg sync.WaitGroup
		for _, s := range []fitSample{a, b} {
			wg.Add(1)
			go func(s fitSample) {
				defer wg.Done()
				fitOnce(s, 1)
			}(s)
		}
		wg.Wait()
	})
	fused := timeIt(ratioBudget, func() {
		_, _, _ = nn.FitBatch([]nn.BatchItem{{Train: a.train, Cfg: a.cfg}, {Train: b.train, Cfg: b.cfg}}, 2)
	})
	out["nn.fitbatch2_over_solo2"] = fused / solo
}

// probeCoord measures what a coordinator hop adds to the three request
// kinds a client makes, against the same in-process worker: a submit, a
// status read and a full event stream of a finished job, each through an
// in-process coordinator minus the same request direct.
func probeCoord(a *api, direct, viaCoord string, out map[string]float64) error {
	spec := tinySpec(977)
	// Warm the scope so every probe job is cache hits.
	if o := (&env{api: a}).runJob(direct, job{spec: spec}, unreachable); o.err != nil {
		return o.err
	}
	const probes = 40
	var submit, get, sse [2][]float64
	for i := 0; i < probes; i++ {
		for side, base := range []string{direct, viaCoord} {
			t0 := time.Now()
			snap, err := a.submit(base, spec)
			if err != nil {
				return err
			}
			submit[side] = append(submit[side], time.Since(t0).Seconds()*1000)
			o := newOutcome()
			a.follow(base, snap.ID, t0, 0, o)
			if o.err != nil {
				return o.err
			}
			t0 = time.Now()
			var got serve.Snapshot
			if err := a.getJSON(base+"/jobs/"+snap.ID, &got); err != nil {
				return err
			}
			get[side] = append(get[side], time.Since(t0).Seconds()*1000)
			t0 = time.Now()
			a.follow(base, snap.ID, t0, 0, newOutcome())
			sse[side] = append(sse[side], time.Since(t0).Seconds()*1000)
		}
	}
	out["coord.submit_overhead_ms_p50"] = percentile(submit[1], 0.5) - percentile(submit[0], 0.5)
	out["coord.get_overhead_ms_p50"] = percentile(get[1], 0.5) - percentile(get[0], 0.5)
	out["coord.sse_overhead_ms_p50"] = percentile(sse[1], 0.5) - percentile(sse[0], 0.5)
	return nil
}
