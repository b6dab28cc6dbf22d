package hpo

import (
	"context"
	"fmt"
	"sync"
	"time"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// ASHAOptions configure asynchronous successive halving (Li et al., 2018).
type ASHAOptions struct {
	// Eta is the promotion factor. 0 selects 3.
	Eta int
	// MinBudget is the rung-0 per-configuration budget. 0 selects 4·K.
	MinBudget int
	// MaxConfigs is the number of configurations sampled. 0 selects
	// min(27, space size).
	MaxConfigs int
	// Workers is the number of concurrent evaluation goroutines. The set
	// of evaluations and the selected configuration are identical for any
	// worker count (see the determinism note on ASHA). 0 selects 4.
	Workers int
	// Seed drives sampling and training.
	Seed uint64
}

func (o ASHAOptions) withDefaults(k, spaceSize int) ASHAOptions {
	if o.Eta < 2 {
		o.Eta = 3
	}
	if o.MinBudget <= 0 {
		o.MinBudget = 4 * k
	}
	if o.MaxConfigs <= 0 {
		o.MaxConfigs = 27
		if o.MaxConfigs > spaceSize {
			o.MaxConfigs = spaceSize
		}
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	return o
}

// ashaJob is one unit of work: evaluate the member at rung job.rung.
type ashaJob struct {
	cfg    search.Config
	cfgIdx int
	rung   int
	member int  // index into st.rungs[rung]
	done   bool // no more work will ever arrive
}

// ashaMember is one configuration's slot in a rung.
type ashaMember struct {
	cfg      search.Config
	cfgIdx   int // global sample index: RNG stream tag and tie-break
	state    int // 0 pending, 1 running, 2 done
	score    float64
	promoted bool
	trial    Trial // completed evaluation, buffered until emitted in serial order
}

const (
	memberPending = iota
	memberRunning
	memberDone
)

// ashaState is the shared promotion ledger guarded by mu.
type ashaState struct {
	mu          sync.Mutex
	cond        *sync.Cond
	rungs       [][]ashaMember // members per rung, in promotion order
	settled     []int          // per rung: completed-prefix length already processed
	outstanding int
	trials      []Trial
	err         error
	eta         int
	maxRung     int

	// Serial-order emission: completed trials are buffered on their rung
	// member and released — appended to trials and reported to observe —
	// in the exact order a single-worker run would produce them, by
	// replaying the serial scheduler (highest rung first, members in
	// index order) over the completed set. emitted[r] is the emission
	// cursor of rung r; created[r] is how many of rung r's members exist
	// in the replay (promotions from the emitted prefix of rung r-1);
	// shadowProm mirrors settle's promoted flags for the replay.
	observe    func(Trial)
	emitted    []int
	created    []int
	shadowProm [][]bool
}

// ASHA runs asynchronous successive halving: worker goroutines
// independently promote configurations through budget rungs as soon as a
// configuration enters the top 1/Eta of its rung, without waiting for the
// rung to fill. With enhanced components this is "ASHA+", extending the
// paper's technique to the asynchronous setting it cites.
//
// Determinism: promotion decisions are replayed in the canonical arrival
// order of each rung (a configuration's rung-r result is considered only
// once every earlier member of rung r has finished), and per-trial RNG
// streams are derived from (configuration index, rung). The set of
// evaluations and the returned best configuration are therefore identical
// for any worker count. Completed trials are additionally buffered and
// released in the order a single-worker run would produce them (see
// emitReady), so Result.Trials — and the Observe stream, hence any
// anytime curve built from it — are also identical for any worker count;
// only per-trial wall times vary.
//
// Cancellation: a cancelled or expired ctx stops every worker before its
// next evaluation and returns ctx's error. Evaluations in flight finish,
// so the run stops within one evaluation of the cancel.
func ASHA(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts ASHAOptions) (*Result, error) {
	comps = comps.withDefaults()
	if err := validateRun(space, comps); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(comps.K, space.Size())
	root := rng.New(opts.Seed ^ 0xa5aa)
	full := ev.FullBudget()
	maxRung := 0
	for b := opts.MinBudget; b < full; b *= opts.Eta {
		maxRung++
	}
	configs := space.SampleN(root.Split(1), opts.MaxConfigs)
	if len(configs) == 0 {
		return nil, fmt.Errorf("hpo: ASHA sampled no configurations")
	}
	st := &ashaState{
		rungs:      make([][]ashaMember, maxRung+1),
		settled:    make([]int, maxRung+1),
		eta:        opts.Eta,
		maxRung:    maxRung,
		emitted:    make([]int, maxRung+1),
		created:    make([]int, maxRung+1),
		shadowProm: make([][]bool, maxRung+1),
	}
	st.cond = sync.NewCond(&st.mu)
	for i, cfg := range configs {
		st.rungs[0] = append(st.rungs[0], ashaMember{cfg: cfg, cfgIdx: i})
	}
	st.created[0] = len(st.rungs[0])
	// Trials are observed in serial emission order, not completion order:
	// evalTrial's inline callback is suppressed and complete() reports
	// through the replay instead.
	st.observe = comps.Observe
	comps.Observe = nil

	start := time.Now()
	budgetOf := func(rung int) int {
		b := opts.MinBudget
		for i := 0; i < rung; i++ {
			b *= opts.Eta
		}
		if b > full {
			b = full
		}
		return b
	}

	// Wake blocked workers when ctx is cancelled mid-run.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			st.mu.Lock()
			if st.err == nil {
				st.err = ctx.Err()
			}
			st.cond.Broadcast()
			st.mu.Unlock()
		case <-watchDone:
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				job := st.nextJob()
				if job.done {
					return
				}
				r := root.Split(uint64(job.cfgIdx)*131 + uint64(job.rung) + 7)
				var tr Trial
				err := ctx.Err()
				if err == nil {
					tr, err = evalTrial(ev, comps, job.cfg, budgetOf(job.rung), job.rung, r)
				}
				st.complete(job, tr, err)
			}
		}()
	}
	wg.Wait()
	if st.err != nil {
		return nil, st.err
	}
	res := &Result{Method: "asha", Trials: st.trials}
	res.Best, res.BestScore = st.best()
	res.Evaluations = len(res.Trials)
	res.Elapsed = time.Since(start)
	return res, nil
}

func init() {
	RegisterFunc(MethodInfo{
		Name:             "asha",
		Description:      "asynchronous successive halving with deterministic prefix-replayed promotions (Li et al. 2018)",
		BudgetAware:      true,
		HonorsWorkers:    true,
		HonorsMaxConfigs: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts RunOptions) (*Result, error) {
		o := opts.ASHA
		o.Seed = opts.Seed
		if o.Workers == 0 {
			o.Workers = opts.Workers
		}
		if o.MaxConfigs == 0 {
			o.MaxConfigs = opts.MaxConfigs
		}
		return ASHA(ctx, space, ev, comps, o)
	})
}

// nextJob blocks until work is available or the run is finished.
func (st *ashaState) nextJob() ashaJob {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.err != nil {
			return ashaJob{done: true}
		}
		// Prefer the highest rung with a pending member (get strong
		// configurations to full budget fast).
		for r := st.maxRung; r >= 0; r-- {
			for m := range st.rungs[r] {
				mem := &st.rungs[r][m]
				if mem.state != memberPending {
					continue
				}
				mem.state = memberRunning
				st.outstanding++
				return ashaJob{cfg: mem.cfg, cfgIdx: mem.cfgIdx, rung: r, member: m}
			}
		}
		if st.outstanding == 0 {
			st.cond.Broadcast()
			return ashaJob{done: true}
		}
		st.cond.Wait()
	}
}

// complete records a finished evaluation, settles any promotions it
// unlocks, and wakes waiting workers.
func (st *ashaState) complete(job ashaJob, tr Trial, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.outstanding--
	if err != nil {
		if st.err == nil {
			st.err = err
		}
	} else if st.err == nil {
		// Once the run has erred (evaluation failure or cancellation) the
		// result is discarded, so in-flight successes neither settle
		// promotions nor release the emission backlog — a cancelled job's
		// reported trial count freezes instead of flushing buffered
		// trials after the cancel.
		mem := &st.rungs[job.rung][job.member]
		mem.state = memberDone
		mem.score = tr.Score
		mem.trial = tr
		st.settle(job.rung)
		st.emitReady()
	}
	st.cond.Broadcast()
}

// emitReady releases buffered completed trials in the canonical serial
// order: repeatedly, the replayed single-worker scheduler's next pick —
// the lowest unemitted member of the highest rung that exists in the
// replay — is emitted if its evaluation has finished, and emission stalls
// on it otherwise. Every replay-created member is also created (and hence
// evaluated) by the real run, so the replay always drains by the time the
// run ends. Trials therefore arrive at observe, and land in st.trials, in
// an order independent of the worker count. Caller holds st.mu; observe
// runs under it, keeping concurrent completions in emission order.
func (st *ashaState) emitReady() {
	for {
		r := -1
		for q := st.maxRung; q >= 0; q-- {
			if st.emitted[q] < st.created[q] {
				r = q
				break
			}
		}
		if r < 0 {
			return
		}
		mem := &st.rungs[r][st.emitted[r]]
		if mem.state != memberDone {
			return
		}
		st.emitted[r]++
		st.trials = append(st.trials, mem.trial)
		if st.observe != nil {
			st.observe(mem.trial)
		}
		st.shadowSettle(r)
	}
}

// shadowSettle advances the replay's promotion state after rung r's
// emitted prefix grew by one: the same decision settle takes at this
// prefix length, recorded with the replay's own flags, so created[r+1]
// counts exactly the members a serial run would have promoted by now.
// Caller holds st.mu.
func (st *ashaState) shadowSettle(r int) {
	if r >= st.maxRung {
		return
	}
	members := st.rungs[r]
	j := st.emitted[r]
	k := j / st.eta
	if k < 1 {
		return
	}
	if len(st.shadowProm[r]) < j {
		grown := make([]bool, j)
		copy(grown, st.shadowProm[r])
		st.shadowProm[r] = grown
	}
	for _, m := range topMembers(members[:j], k) {
		if st.shadowProm[r][m] {
			continue
		}
		st.shadowProm[r][m] = true
		st.created[r+1]++
	}
}

// settle replays rung r's promotion decisions over its newly completed
// prefix. Decisions are taken at every prefix length j in order — exactly
// as if members had finished one by one in rung order — so the promoted
// set and the order of arrivals into rung r+1 do not depend on the actual
// completion schedule. Caller holds st.mu.
func (st *ashaState) settle(r int) {
	if r >= st.maxRung {
		return
	}
	members := st.rungs[r]
	for st.settled[r] < len(members) && members[st.settled[r]].state == memberDone {
		st.settled[r]++
		j := st.settled[r]
		k := j / st.eta
		if k < 1 {
			continue
		}
		for _, m := range topMembers(members[:j], k) {
			if members[m].promoted {
				continue
			}
			members[m].promoted = true
			st.rungs[r+1] = append(st.rungs[r+1], ashaMember{
				cfg:    members[m].cfg,
				cfgIdx: members[m].cfgIdx,
			})
		}
	}
}

// topMembers returns the indices of the k highest-scoring members (ties
// broken by configuration index), in rank order.
func topMembers(members []ashaMember, k int) []int {
	idx := make([]int, len(members))
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort: rung prefixes are small and the call is per-completion.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := &members[idx[j-1]], &members[idx[j]]
			if a.score > b.score || (a.score == b.score && a.cfgIdx < b.cfgIdx) {
				break
			}
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// best returns the top configuration of the highest rung with a completed
// evaluation (ties broken by configuration index, so the choice is
// deterministic).
func (st *ashaState) best() (search.Config, float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for r := st.maxRung; r >= 0; r-- {
		bestIdx := -1
		for m := range st.rungs[r] {
			mem := &st.rungs[r][m]
			if mem.state != memberDone {
				continue
			}
			if bestIdx < 0 {
				bestIdx = m
				continue
			}
			cur := &st.rungs[r][bestIdx]
			if mem.score > cur.score || (mem.score == cur.score && mem.cfgIdx < cur.cfgIdx) {
				bestIdx = m
			}
		}
		if bestIdx >= 0 {
			return st.rungs[r][bestIdx].cfg, st.rungs[r][bestIdx].score
		}
	}
	return search.Config{}, 0
}
