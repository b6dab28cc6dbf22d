package hpo

import (
	"context"
	"sort"
	"sync"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// ashaJob is one unit of work: evaluate the member at rung job.rung.
type ashaJob struct {
	cfg    search.Config
	cfgIdx int
	rung   int
	member int  // index into st.rungs[rung]
	done   bool // no more work will ever arrive
}

// ashaMember is one configuration's slot in a rung. Its order is the
// global sample index: RNG stream tag and tie-break.
type ashaMember struct {
	ranked
	state    int // 0 pending, 1 running, 2 done
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
	// in the replay: what settle had promoted into rung r once it took the
	// emitted prefix of rung r-1, which promotedAt[r-1][j-1] records for
	// each prefix length j.
	observe    func(Trial)
	emitted    []int
	created    []int
	promotedAt [][]int
}

// asha runs asynchronous successive halving (Li et al., 2018): worker
// goroutines independently promote configurations through budget rungs as
// soon as a configuration enters the top 1/η of its rung, without waiting
// for the rung to fill. With enhanced components this is "ASHA+",
// extending the paper's technique to the asynchronous setting it cites.
// Workers defaults to 4.
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
// only per-trial wall times vary. Evaluations in flight when ctx is
// cancelled finish, so the run stops within one evaluation per worker.
func (sc schedule) asha(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
	root := rng.New(o.Seed ^ 0xa5aa)
	budgets, configs := sc.rungs(space, comps.K, ev.FullBudget(), o.MaxConfigs, root.Split(1))
	maxRung := len(budgets) - 1
	st := &ashaState{
		rungs:      make([][]ashaMember, maxRung+1),
		settled:    make([]int, maxRung+1),
		eta:        sc.eta,
		maxRung:    maxRung,
		emitted:    make([]int, maxRung+1),
		created:    make([]int, maxRung+1),
		promotedAt: make([][]int, maxRung+1),
	}
	st.cond = sync.NewCond(&st.mu)
	for i, cfg := range configs {
		st.rungs[0] = append(st.rungs[0], ashaMember{ranked: ranked{cfg: cfg, order: i}})
	}
	st.created[0] = len(st.rungs[0])
	// Trials are observed in serial emission order, not completion order:
	// evalTrial's inline callback is suppressed and complete() reports
	// through the replay instead.
	st.observe = comps.Observe
	comps.Observe = nil

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

	workers := o.Workers
	if workers <= 0 {
		workers = 4
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
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
					tr, err = evalTrial(ev, comps, job.cfg, budgets[job.rung], job.rung, r)
				}
				st.complete(job, tr, err)
			}
		}()
	}
	wg.Wait()
	if st.err != nil {
		return nil, st.err
	}
	res := &Result{Trials: st.trials}
	res.Best, res.BestScore = st.best()
	return res, nil
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
				return ashaJob{cfg: mem.cfg, cfgIdx: mem.order, rung: r, member: m}
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
		if r < st.maxRung {
			// settle has taken at least this prefix: its members are done.
			st.created[r+1] = st.promotedAt[r][st.emitted[r]-1]
		}
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
		if k := j / st.eta; k >= 1 {
			for _, m := range topMembers(members[:j], k) {
				if members[m].promoted {
					continue
				}
				members[m].promoted = true
				st.rungs[r+1] = append(st.rungs[r+1], ashaMember{ranked: ranked{cfg: members[m].cfg, order: members[m].order}})
			}
		}
		st.promotedAt[r] = append(st.promotedAt[r], len(st.rungs[r+1]))
	}
}

// topMembers returns the indices of the k best-ranked members, in rank
// order.
func topMembers(members []ashaMember, k int) []int {
	idx := make([]int, len(members))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return members[idx[a]].better(members[idx[b]].ranked) })
	return idx[:min(k, len(idx))]
}

// best returns the best-ranked configuration of the highest rung with a
// completed evaluation.
func (st *ashaState) best() (search.Config, float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for r := st.maxRung; r >= 0; r-- {
		bestIdx := -1
		for m := range st.rungs[r] {
			mem := &st.rungs[r][m]
			if mem.state == memberDone && (bestIdx < 0 || mem.better(st.rungs[r][bestIdx].ranked)) {
				bestIdx = m
			}
		}
		if bestIdx >= 0 {
			return st.rungs[r][bestIdx].cfg, st.rungs[r][bestIdx].score
		}
	}
	return search.Config{}, 0
}
