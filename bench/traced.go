package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"enhancedbhpo/internal/coord"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/scoring"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/serve"
	"enhancedbhpo/internal/serve/evalcache"
)

// The traced run. Spans are recorded only from this file, around calls
// into each layer's public functions; nothing inside the program is
// instrumented. Three passes give the per-layer numbers:
//
//   - process rounds: two rounds of the end-to-end machinery with
//     bhpod -pprof, for counters (/metrics), memory and boot times;
//   - library pass: every job of the list through method.Run with an
//     instrumented evaluator — the layers below the service;
//   - service pass: the list through an in-process serve.Manager behind
//     httptest, driven the way the workload drives bhpod — the layers
//     above the evaluator.

// span is one timed interval at a layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: the untraced library pass, whose difference from the traced
// one is the tracing overhead.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginAt opens a span at a given instant and returns its ID.
func (t *tracer) beginAt(name, job string, parent int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: int64(at.Sub(t.t0))})
	return id
}

func (t *tracer) endAt(id int, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(at.Sub(t.t0))
	t.mu.Unlock()
}

func (t *tracer) begin(name, job string, parent int) int {
	return t.beginAt(name, job, parent, time.Now())
}

func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

// finish computes self times: a span's duration minus the part of its
// interval that its children cover (children of one parent may overlap —
// two workers of one job — so it is the union that is subtracted).
func (t *tracer) finish() {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - unionLength(children[s.ID], s.Start, s.End)
	}
}

// unionLength is the length of the union of intervals, clipped to [lo, hi].
func unionLength(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := lo
	for _, x := range iv {
		a, b := x[0], x[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// selfByName sums self time per span name, in seconds.
func (t *tracer) selfByName() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.Self) / 1e9
	}
	return out
}

func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// ---- library pass ----

// cursor is where the library pass is: the job whose spans are being
// recorded, its open run span and its open evaluation span. The pass is
// single-threaded, so the span wrappers share it.
type cursor struct {
	job       string
	run, eval int
	// evalNS is the time the current job has spent inside its evaluator.
	evalNS time.Duration
}

// tracedCV makes the calls of hpo.CVEvaluator.Evaluate in the same order
// — Folds, Dataset.Select twice per fold, nn.Fit, Score — with a span
// around each. Every sampleEvery-th evaluation is kept so checkSamples
// can hold its fold scores against the real evaluator's, bit for bit.
type tracedCV struct {
	real *hpo.CVEvaluator
	t    *tracer
	at   *cursor
	// fits counts every training call by shape; lockstep only those the
	// fuser can batch (L-BFGS has no lockstep form).
	fits, lockstep *fitStats
	checks         []cvCheck
	n              int
}

type cvCheck struct {
	cfg    search.Config
	budget int
	r      *rng.RNG
	scores []float64
}

const sampleEvery = 8

func (e *tracedCV) FullBudget() int { return e.real.FullBudget() }

func (e *tracedCV) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	c, job := e.real, e.at.job
	root := e.t.begin("cv.evaluate", job, e.at.eval)
	defer e.t.end(root)
	name := "cv.folds.stratified"
	if c.Groups != nil {
		name = "cv.folds.group"
	}
	id := e.t.begin(name, job, root)
	folds, err := c.Folds.Folds(c.Train, c.Groups, budget, c.K, r.Split(0xf01d))
	e.t.end(id)
	if err != nil {
		return nil, err
	}
	nnCfg, err := search.ToNNConfig(cfg, c.Base)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, 0, len(folds))
	for fi, fold := range folds {
		if len(fold.Train) < 2 || len(fold.Val) == 0 {
			continue
		}
		id = e.t.begin("dataset.select", job, root)
		trainSub := c.Train.Select(fold.Train)
		valSub := c.Train.Select(fold.Val)
		e.t.end(id)
		foldCfg := nnCfg
		foldCfg.Seed = r.Split(uint64(fi) + 1).Uint64()
		id = e.t.begin("nn.fit", job, root)
		model, err := nn.Fit(trainSub, foldCfg)
		e.t.end(id)
		if err != nil {
			return nil, err
		}
		if fi == 0 {
			e.fits.add(fitSample{train: trainSub, cfg: foldCfg})
			if foldCfg.Solver != nn.LBFGS {
				e.lockstep.add(fitSample{train: trainSub, cfg: foldCfg})
			}
		}
		id = e.t.begin("nn.score", job, root)
		if c.UseF1 && c.Train.Kind == dataset.Classification {
			scores = append(scores, model.ScoreF1(valSub))
		} else {
			scores = append(scores, model.Score(valSub))
		}
		e.t.end(id)
	}
	if len(scores) == 0 {
		return nil, fmt.Errorf("no usable folds for budget %d", budget)
	}
	if e.n++; e.n%sampleEvery == 1 {
		e.checks = append(e.checks, cvCheck{cfg, budget, r, append([]float64(nil), scores...)})
	}
	return scores, nil
}

// spanCache puts one span around each call into the evaluation cache
// and makes it the parent of whatever a miss reaches.
type spanCache struct {
	inner *evalcache.Cache
	t     *tracer
	at    *cursor
}

func (e *spanCache) FullBudget() int { return e.inner.FullBudget() }

func (e *spanCache) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	t0 := time.Now()
	e.at.eval = e.t.beginAt("evalcache", e.at.job, e.at.run, t0)
	scores, err := e.inner.Evaluate(cfg, budget, r)
	now := time.Now()
	e.t.endAt(e.at.eval, now)
	e.at.evalNS += now.Sub(t0)
	return scores, err
}

// spanScorer times the scorer (Eq. 1–3).
type spanScorer struct {
	inner scoring.Scorer
	t     *tracer
	at    *cursor
}

func (s spanScorer) Name() string { return s.inner.Name() }

func (s spanScorer) Score(fold []float64, gamma float64) float64 {
	id := s.t.begin("scoring.score", s.at.job, s.at.run)
	v := s.inner.Score(fold, gamma)
	s.t.end(id)
	return v
}

// libScope is one cache scope of the library pass, built once like the
// manager's evalScope.
type libScope struct {
	test     *dataset.Dataset
	comps    hpo.Components
	real     *hpo.CVEvaluator
	eval     hpo.Evaluator // the cache, spanned when traced
	traced   *tracedCV     // nil in the untraced pass
	buildSec float64
}

// libJob is what the library pass learned about one job.
type libJob struct {
	key              int
	method           string
	enhanced         bool
	wall, scopeBuild float64 // seconds
	run, evalSec     float64 // method.Run, and the part of it inside the evaluator
	fitFull, test    float64
	evals, budget    int
	targetEvals      int     // trials until the incumbent reached the target
	toTarget         float64 // seconds from the job's start
}

// libPass runs every job of the list once, in canonical order, one at a
// time on one goroutine (Workers: 1), so spans nest cleanly and a
// method's self time is its run minus the evaluator calls.
type libPass struct {
	t      *tracer // nil: untraced
	at     cursor
	scopes map[string]*libScope
	jobs   []libJob
	// fits and lockstep are the training calls seen, see tracedCV.
	fits, lockstep *fitStats
}

func newLibPass(t *tracer) *libPass {
	return &libPass{t: t, scopes: map[string]*libScope{}, fits: newFitStats(), lockstep: newFitStats()}
}

// scope builds (once) what serve.Manager.buildScope builds: the data,
// the fold components, the CV evaluator and its cache.
func (p *libPass) scope(spec serve.JobSpec, root int) (sc *libScope, built bool, err error) {
	key := spec.CacheScope()
	if sc, ok := p.scopes[key]; ok {
		return sc, false, nil
	}
	t0 := time.Now()
	ds, err := dataset.SpecByName(spec.Dataset)
	if err != nil {
		return nil, false, err
	}
	id := p.t.begin("dataset.synthesize", p.at.job, root)
	train, test, err := dataset.Synthesize(ds.Scaled(spec.Scale), spec.DatasetSeed)
	if err == nil {
		dataset.Standardize(train, test)
	}
	p.t.end(id)
	if err != nil {
		return nil, false, err
	}
	comps := hpo.VanillaComponents(0)
	if spec.Enhanced {
		id = p.t.begin("grouping.build", p.at.job, root)
		comps, err = hpo.EnhancedComponents(train, hpo.EnhancedOptions{}, rng.New(spec.DatasetSeed^0x9e37))
		p.t.end(id)
		if err != nil {
			return nil, false, err
		}
	}
	base := nn.DefaultConfig()
	base.MaxIter = spec.Iters
	base.LearningRateInit = 0.02
	base.KernelWorkers = 1
	sc = &libScope{test: test, comps: comps, real: hpo.NewCVEvaluator(train, base, comps)}
	if p.t == nil {
		sc.eval = evalcache.New(sc.real, 1<<16)
	} else {
		sc.traced = &tracedCV{real: sc.real, t: p.t, at: &p.at, fits: p.fits, lockstep: p.lockstep}
		sc.eval = &spanCache{inner: evalcache.New(sc.traced, 1<<16), t: p.t, at: &p.at}
		sc.comps.Scorer = spanScorer{inner: comps.Scorer, t: p.t, at: &p.at}
	}
	sc.buildSec = time.Since(t0).Seconds()
	p.scopes[key] = sc
	return sc, true, nil
}

// specDefaults fills the fields the benchmark's specs leave to the
// server's defaults (serve.JobSpec applies the same ones on submit).
func specDefaults(s serve.JobSpec) serve.JobSpec {
	if s.NumHPs == 0 {
		s.NumHPs = 4
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.DatasetSeed == 0 {
		s.DatasetSeed = 1
	}
	return s
}

func (p *libPass) runJob(i int, j job) error {
	spec := specDefaults(j.spec)
	p.at.job, p.at.evalNS = fmt.Sprintf("lib-%d", i), 0
	lj := libJob{key: j.key, method: spec.Method, enhanced: spec.Enhanced}
	if m, ok := hpo.CanonicalName(spec.Method); ok {
		lj.method = m
	}
	start := time.Now()
	root := p.t.begin("job", p.at.job, -1)
	defer p.t.end(root)
	sc, built, err := p.scope(spec, root)
	if err != nil {
		return err
	}
	if built {
		lj.scopeBuild = sc.buildSec
	}
	space, err := search.TableIIISpace(spec.NumHPs)
	if err != nil {
		return err
	}
	method, ok := hpo.LookupMethod(spec.Method)
	if !ok {
		return fmt.Errorf("unknown method %q", spec.Method)
	}
	type seen struct{ at, best float64 }
	var curve []seen
	best := math.Inf(-1)
	comps := sc.comps.WithObserver(func(tr hpo.Trial) {
		best = math.Max(best, tr.Score)
		lj.budget += tr.Budget
		curve = append(curve, seen{time.Since(start).Seconds(), best})
	})
	runStart := time.Now()
	p.at.run = p.t.begin("hpo.run."+lj.method, p.at.job, root)
	res, err := method.Run(context.Background(), space, sc.eval, comps, hpo.RunOptions{
		Seed: spec.Seed, Workers: 1, MaxConfigs: spec.MaxConfigs, Trials: spec.Trials,
	})
	p.t.end(p.at.run)
	lj.run = time.Since(runStart).Seconds()
	if err != nil {
		return err
	}
	lj.evalSec = p.at.evalNS.Seconds()
	t0 := time.Now()
	id := p.t.begin("nn.fit_full", p.at.job, root)
	model, err := sc.real.FitFull(res.Best, rng.New(spec.Seed^0xf17).Uint64())
	p.t.end(id)
	lj.fitFull = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	t0 = time.Now()
	id = p.t.begin("nn.test_score", p.at.job, root)
	model.Score(sc.test)
	p.t.end(id)
	lj.test = time.Since(t0).Seconds()
	lj.wall = time.Since(start).Seconds()
	lj.evals = len(curve)
	if n := len(curve); n > 0 {
		target := targetShare * curve[n-1].best
		for k, c := range curve {
			if c.best >= target {
				lj.targetEvals, lj.toTarget = k+1, c.at
				break
			}
		}
	}
	p.jobs = append(p.jobs, lj)
	return nil
}

// checkSamples holds the traced evaluator's sampled fold scores against
// the real CVEvaluator's, bit for bit, and returns what differs.
func (p *libPass) checkSamples() []string {
	var bad []string
	for key, sc := range p.scopes {
		if sc.traced == nil {
			continue
		}
		for _, c := range sc.traced.checks {
			want, err := sc.real.Evaluate(c.cfg, c.budget, c.r)
			if err != nil || len(want) != len(c.scores) {
				bad = append(bad, fmt.Sprintf("scope %s: real evaluator disagrees (%v)", key, err))
				continue
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(c.scores[i]) {
					bad = append(bad, fmt.Sprintf("scope %s budget %d fold %d: traced %v, real %v", key, c.budget, i, c.scores[i], want[i]))
					break
				}
			}
		}
	}
	return bad
}

// ---- service pass ----

// evalSpan is one evaluation as Config.WrapEvaluator saw it: inside the
// pool gate, around the cache.
type evalSpan struct{ start, end time.Time }

type wrapEval struct {
	inner hpo.Evaluator
	sink  func(evalSpan)
}

func (w *wrapEval) FullBudget() int { return w.inner.FullBudget() }

func (w *wrapEval) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	s := evalSpan{start: time.Now()}
	scores, err := w.inner.Evaluate(cfg, budget, r)
	s.end = time.Now()
	w.sink(s)
	return scores, err
}

// servicePass is what driving the workload's load against an in-process
// manager produced: the clients' outcomes (with every event and its
// receive time), the evaluation spans per job ID and a fairness sample.
type servicePass struct {
	jobs     []job
	outs     []*outcome
	spans    map[string][]evalSpan
	fairness float64
}

func runServicePass(h *harness, w *workload, opt options, out map[string]float64) (*servicePass, error) {
	sp := &servicePass{spans: map[string][]evalSpan{}, fairness: 1}
	var mu sync.Mutex
	cfg := w.cfg
	cfg.DataDir = h.dir("service")
	defer os.RemoveAll(cfg.DataDir)
	cfg.WrapEvaluator = func(jobID string, inner hpo.Evaluator) hpo.Evaluator {
		return &wrapEval{inner: inner, sink: func(s evalSpan) {
			mu.Lock()
			sp.spans[jobID] = append(sp.spans[jobID], s)
			mu.Unlock()
		}}
	}
	m, err := serve.NewManagerFromJournal(cfg)
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(serve.NewServer(m))
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx) // every job is terminal; this only closes the journal
	}()
	e := &env{h: h, api: &api{http: srv.Client(), keepEvents: true}, opt: opt}

	// Fairness is sampled when the first job ends: the tenants are still
	// all backlogged then, and their weighted service should be level.
	sampled := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			for _, j := range m.Jobs() {
				if j.Status() == serve.StatusDone {
					sp.fairness = fairness(m.Tenants())
					return
				}
			}
		}
	}()
	groups, batch := w.load(opt)
	jobs, _, outs, err := e.drive(srv.URL, groups, batch, func(job) (*goldenJob, error) { return unreachable, nil })
	close(stop)
	<-sampled
	if err != nil {
		return nil, err
	}
	sp.jobs, sp.outs = jobs, outs
	for _, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("service pass: %w", o.err)
		}
	}

	// The coordinator hop, measured against this same worker.
	c, err := coord.New(coord.Config{Nodes: []coord.Node{{Name: "a", URL: srv.URL}}})
	if err != nil {
		return nil, err
	}
	c.Start()
	csrv := httptest.NewServer(c)
	err = probeCoord(&api{http: srv.Client()}, srv.URL, csrv.URL, out)
	csrv.Close()
	c.Shutdown()
	if err != nil {
		return nil, fmt.Errorf("coordinator probe: %w", err)
	}

	// The layers fed with what the run produced.
	recs := journalRecords(cfg.DataDir)
	var evs []events.Event
	for _, o := range outs {
		evs = append(evs, o.evs...)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
	scratch := h.dir("layers")
	defer os.RemoveAll(scratch)
	if err := measureJournal(filepath.Join(scratch, "journal"), recs, out); err != nil {
		return nil, err
	}
	if err := measureTraceStore(filepath.Join(scratch, "traces"), evs, out); err != nil {
		return nil, err
	}
	measureHub(evs, out)
	measureSched(w.cfg, jobs, evs, out)
	measureRing(jobs, out)
	return sp, nil
}

// fairness is the largest over the smallest weighted service
// (service units ÷ weight) among tenants that were served: 1 is fair.
func fairness(tenants []serve.TenantStatus) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, t := range tenants {
		if t.ServiceUnits <= 0 || t.Weight <= 0 {
			continue
		}
		v := t.ServiceUnits / float64(t.Weight)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi == 0 {
		return 1
	}
	return hi / lo
}

// serviceMetrics turns the service pass into the serve.* numbers and adds
// one span tree per job to the trace: submit, scheduler waits, every
// evaluation, the finish and the stream's close.
func serviceMetrics(sp *servicePass, lib *libPass, t *tracer, out map[string]float64) {
	var submitMS, queueMS, poolMS, finishMS, lagMS, replayMS []float64
	var wallSum, unattributed, fitFull, busy float64
	libByKey := map[int]libJob{}
	for _, lj := range lib.jobs {
		libByKey[lj.key] = lj
	}
	for i, o := range sp.outs {
		spans := sp.spans[o.id]
		sort.Slice(spans, func(a, b int) bool { return spans[a].end.Before(spans[b].end) })
		end := o.t0.Add(time.Duration(o.wall * float64(time.Second)))
		root := t.beginAt("service.job", o.id, -1, o.t0)
		t.endAt(root, end)
		// The request path of the submit; its response overlaps the job.
		accept := o.submitted
		if accept.Before(o.t0) {
			accept = o.t0
		}
		t.endAt(t.beginAt("serve.submit", o.id, root, o.t0), accept)
		submitMS = append(submitMS, o.submitSeconds*1000)

		var queued float64
		queuedSince := accept
		var lastPoint, term, resumedAt time.Time
		points, replayLeft, next := 0, 0, 0
		var prevCum time.Duration
		for k, ev := range o.evs {
			switch {
			case ev.Type == events.TypeResumed, ev.Type == events.TypeStatus && ev.Status == string(serve.StatusRunning):
				d := ev.Time.Sub(queuedSince).Seconds()
				queued += d
				t.endAt(t.beginAt("sched.wait", o.id, root, queuedSince), ev.Time)
				if ev.Type == events.TypeResumed {
					// The optimizer restarts and regenerates the recorded
					// prefix from the cache before any new trial appears.
					resumedAt, replayLeft = ev.Time, points
				} else {
					queueMS = append(queueMS, d*1000)
				}
			case ev.Type == events.TypePreempted:
				queuedSince = ev.Time
			case ev.Type == events.TypeCurvePoint && ev.Point != nil:
				points++
				lastPoint = ev.Time
				lagMS = append(lagMS, o.recv[k].Sub(ev.Time).Seconds()*1000)
				elapsed := ev.Point.CumTime - prevCum
				prevCum = ev.Point.CumTime
				// Trials and evaluation spans pair up in completion
				// order, once the spans that replayed a prefix are set
				// aside.
				for ; replayLeft > 0 && next < len(spans); next++ {
					if replayLeft--; replayLeft == 0 {
						replayMS = append(replayMS, spans[next].end.Sub(resumedAt).Seconds()*1000)
					}
				}
				if next < len(spans) {
					// A trial's Elapsed counts from before the pool gate,
					// the evaluation span from behind it.
					s := spans[next]
					next++
					poolMS = append(poolMS, math.Max(0, (elapsed-s.end.Sub(s.start)).Seconds()*1000))
				}
			case ev.Type == events.TypeStatus && ev.Terminal:
				term = ev.Time
			}
		}
		var iv [][2]int64
		for _, s := range spans {
			t.endAt(t.beginAt("serve.eval", o.id, root, s.start), s.end)
			iv = append(iv, [2]int64{int64(s.start.Sub(t.t0)), int64(s.end.Sub(t.t0))})
		}
		evalSec := float64(unionLength(iv, math.MinInt64, math.MaxInt64)) / 1e9
		finishMS = append(finishMS, term.Sub(lastPoint).Seconds()*1000)
		t.endAt(t.beginAt("serve.finish", o.id, root, lastPoint), term)
		t.endAt(t.beginAt("serve.sse_close", o.id, root, term), end)

		// What the layers account for: the intervals measured on the
		// service side plus the library pass's numbers for the work on
		// the far side of the evaluator boundary (scope build, the
		// method's own time, the final refit and test score) and the
		// trace file's terminal fsync, which a job's stream waits for
		// (its cost as measured on the trace store alone).
		lj := libByKey[sp.jobs[i].key]
		attributed := accept.Sub(o.t0).Seconds() + queued + evalSec + lj.scopeBuild +
			(lj.run - lj.evalSec) + lj.fitFull + lj.test + out["tracestore.fsync_ms_p50"]/1000 + end.Sub(term).Seconds()
		wallSum += o.wall
		unattributed += math.Abs(o.wall - attributed)
		fitFull += lj.fitFull
		busy += o.wall - queued
	}
	// The final refit's share of a job as the service's client sees it,
	// scheduler waits aside: what a warm resubmission cannot save.
	out["nn.fit_full_share"] = fitFull / busy
	out["serve.submit_ms_p50"] = percentile(submitMS, 0.5)
	out["serve.queued_to_running_ms_p50"] = percentile(queueMS, 0.5)
	out["serve.pool_wait_ms_p50"] = percentile(poolMS, 0.5)
	out["serve.finish_ms_p50"] = percentile(finishMS, 0.5)
	out["serve.sse_lag_ms_p50"] = percentile(lagMS, 0.5)
	out["serve.replay_ms_per_resume"] = mean(replayMS)
	out["serve.unattributed_share"] = unattributed / wallSum
	out["sched.fairness_ratio"] = sp.fairness
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ---- assembling the traced run ----

// tracedReport runs the traced run of one workload and renders the
// contract's per-layer metrics.
func tracedReport(h *harness, spec *benchSpec, w *workload, opt options, prof bool) (report, error) {
	out := map[string]float64{}
	phaseStart := time.Now()
	phase := func(name string) {
		if os.Getenv("BENCH_VERBOSE") != "" {
			fmt.Fprintf(os.Stderr, "bench: %s traced: %s took %.2fs\n", w.name, name, time.Since(phaseStart).Seconds())
		}
		phaseStart = time.Now()
	}

	// Process rounds.
	popt := opt
	popt.traced, popt.rounds = true, 2
	total0, steal0 := hostCPU()
	res, err := runE2E(h, w, popt)
	if err != nil {
		return report{}, err
	}
	total1, steal1 := hostCPU()
	attempted, failed, notes := res.attempted, res.failed, res.notes
	processMetrics(res, out)
	out["proc.steal_share"] = 0
	if total1 > total0 {
		out["proc.steal_share"] = (steal1 - steal0) / (total1 - total0)
	}

	if prof {
		f, err := os.Create(filepath.Join(h.outDir, w.name+".pprof"))
		if err != nil {
			return report{}, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return report{}, err
		}
		defer pprof.StopCPUProfile()
	}

	phase("process rounds")

	// Library pass over the list in canonical order, traced; then
	// untraced over the head of the list, for the tracing overhead.
	var list []job
	groups, _ := w.load(opt)
	for _, g := range groups {
		list = append(list, g...)
	}
	sort.SliceStable(list, func(i, j int) bool { return list[i].key < list[j].key })
	t := newTracer()
	lib, plain := newLibPass(t), newLibPass(nil)
	// The untraced twin of a head job runs right beside the traced one,
	// alternating which goes first, so heap growth and host drift hit
	// both sides alike.
	head := (len(list) + 2) / 3
	var tracedWall, plainWall float64
	for i, j := range list {
		attempted++
		passes := []*libPass{lib, plain}
		if i%2 == 1 {
			passes[0], passes[1] = plain, lib
		}
		if i >= head {
			passes = []*libPass{lib}
		}
		for _, p := range passes {
			if err := p.runJob(i, j); err != nil {
				return report{}, fmt.Errorf("library pass job %d: %w", i, err)
			}
		}
		if i < head {
			tracedWall += lib.jobs[i].wall
			plainWall += plain.jobs[i].wall
		}
	}
	out["trace.overhead_share"] = (tracedWall - plainWall) / plainWall
	phase("library passes")
	bad := lib.checkSamples()
	attempted += len(bad)
	failed += len(bad)
	notes = append(notes, bad...)
	phase("sample check")

	// Service pass.
	sp, err := runServicePass(h, w, opt, out)
	if err != nil {
		return report{}, err
	}
	attempted += len(sp.outs)
	serviceMetrics(sp, lib, t, out)
	t.finish()
	libraryMetrics(lib, t, out)

	for _, k := range []string{"mat.mul_gflops", "mat.tmul_gflops", "mat.mult_gflops", "nn.fit_kw2_over_kw1", "nn.fitbatch2_over_solo2"} {
		out[k] = 0
	}
	phase("service pass and layers")
	if a, _, ok := lib.fits.modal(); ok {
		measureMat(a.shape(), out)
		measureKernelWorkers(a, out)
	}
	if a, b, ok := lib.lockstep.modal(); ok {
		measureFusedFit(a, b, out)
	}
	phase("kernel ratios")
	if err := writeTrace(h, w.name, t); err != nil {
		return report{}, err
	}
	for _, n := range notes {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, n)
	}
	return toReport(spec.PerLayer, out, failed == 0, attempted, failed), nil
}

// processMetrics reports what the process rounds counted, from the
// faster of the two: /metrics counters, the data directory's contents
// and replay cost, memory and boot times.
func processMetrics(res *runResult, out map[string]float64) {
	best := res.rounds[0]
	for _, rr := range res.rounds {
		if rr.makespan < best.makespan {
			best = rr
		}
	}
	c := best.counters
	jobs := math.Max(c["jobs"], 1)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["evalcache.hits"] = c["cache_hits"]
	out["evalcache.misses"] = c["cache_misses"]
	out["evalcache.hit_ratio"] = ratio(c["cache_hits"], c["cache_hits"]+c["cache_misses"])
	out["serve.evals_fused"] = c["evals_fused"]
	out["serve.fuse_fallbacks"] = c["fuse_fallbacks"]
	out["serve.preemptions"] = c["preemptions"]
	out["events.published"] = c["events_published"]
	out["events.dropped"] = c["events_dropped"]
	out["shipper.bytes"] = c["ship_bytes"]
	out["shipper.segments"] = c["ship_segments"]
	out["shipper.retries"] = c["ship_retries"]
	out["shipper.catchup_ms"] = c["ship_catchup_ms"]
	out["journal.bytes_per_job"] = c["journal_dir_bytes"] / jobs
	out["journal.fsyncs_per_job"] = c["journal_fsync_records"] / jobs
	out["journal.rotations"] = c["journal_rotations"]
	out["journal.replay_ms"] = c["journal_replay_ms"]
	out["journal.replay_us_per_job"] = ratio(c["journal_replay_ms"]*1000, c["journal_replay_jobs"])
	out["tracestore.bytes_per_job"] = c["trace_bytes"] / jobs
	out["tracestore.read_ms"] = c["trace_read_ms"]
	out["coord.cpu_s"] = c["coord_cpu_s"]
	out["bhpod.boot_ms"] = c["boot_ms"]
	out["bhpod.boot_replay_ms"] = c["boot_replay_ms"]
	out["proc.peak_rss_mb"] = c["peak_rss_mb"]
	out["proc.alloc_mb"] = c["alloc_mb"]
	out["proc.gc_count"] = c["gc_count"]
	out["proc.gc_pause_ms"] = c["gc_pause_ms"]
	out["proc.noise_ratio"] = res.noise
}

// libraryMetrics reports the layers below the service from the library
// pass's spans.
func libraryMetrics(lib *libPass, t *tracer, out map[string]float64) {
	self := t.selfByName()
	per := func(name string, unit float64, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return self[name] * unit / float64(calls)
	}
	misses := t.count("cv.evaluate")
	out["dataset.synthesize_ms"] = self["dataset.synthesize"] * 1000
	out["dataset.select_us_per_eval"] = per("dataset.select", 1e6, misses)
	out["grouping.build_ms"] = self["grouping.build"] * 1000
	out["cv.groupfolds_us_per_eval"] = per("cv.folds.group", 1e6, t.count("cv.folds.group"))
	out["cv.stratified_us_per_eval"] = per("cv.folds.stratified", 1e6, t.count("cv.folds.stratified"))
	out["nn.fit_ms_per_eval"] = per("nn.fit", 1000, misses)
	out["nn.score_ms_per_eval"] = per("nn.score", 1000, misses)
	out["scoring.score_us_per_eval"] = per("scoring.score", 1e6, t.count("scoring.score"))
	var lookups []float64
	for _, s := range t.spans {
		if s.Name == "evalcache" {
			lookups = append(lookups, float64(s.Self)/1e3)
		}
	}
	out["evalcache.lookup_us_p50"] = percentile(lookups, 0.5)

	var wall, fitFull, evals, budget, toTarget, enh, van float64
	selfMS := map[string][]float64{}
	for i, lj := range lib.jobs {
		wall += lj.wall
		fitFull += lj.fitFull
		selfMS[lj.method] = append(selfMS[lj.method], (lj.run-lj.evalSec)*1000)
		evals += float64(lj.evals)
		budget += float64(lj.budget)
		toTarget += float64(lj.targetEvals)
		// Where the list has both, a vanilla job is followed by its
		// enhanced twin on the same data.
		if i > 0 && lj.enhanced && !lib.jobs[i-1].enhanced && lib.jobs[i-1].method == lj.method {
			enh += lj.toTarget
			van += lib.jobs[i-1].toTarget
		}
	}
	n := float64(len(lib.jobs))
	out["nn.fit_share"] = self["nn.fit"] / wall
	out["nn.fit_full_ms"] = fitFull * 1000 / n
	for _, m := range []string{"sha", "hyperband", "bohb"} {
		out["hpo.self_ms."+m] = mean(selfMS[m])
	}
	out["hpo.evals_per_job"] = evals / n
	out["hpo.budget_units_per_job"] = budget / n
	out["hpo.evals_to_target"] = toTarget / n
	out["hpo.enh_over_vanilla_time"] = 0
	if van > 0 {
		out["hpo.enh_over_vanilla_time"] = enh / van
	}
}

// writeTrace saves the spans with their self times, and the self time
// summed per span name, to out/trace-<workload>.json.
func writeTrace(h *harness, name string, t *tracer) error {
	byName := map[string]float64{}
	for k, v := range t.selfByName() {
		byName[k] = v * 1000
	}
	data, err := json.Marshal(struct {
		Workload     string             `json:"workload"`
		SelfMSByName map[string]float64 `json:"self_ms_by_name"`
		Spans        []span             `json:"spans"`
	}{name, byName, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(h.outDir, "trace-"+name+".json"), data, 0o644)
}
