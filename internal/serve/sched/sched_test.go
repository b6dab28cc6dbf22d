package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// drain grants s's free slots to n enqueued jobs and returns their
// tickets in grant order by reading the grant log.
func mustEnqueue(t *testing.T, s *Scheduler, tenant, id string) *Ticket {
	t.Helper()
	tk, err := s.Enqueue(tenant, id, false)
	if err != nil {
		t.Fatalf("Enqueue(%s, %s): %v", tenant, id, err)
	}
	return tk
}

func granted(tk *Ticket) bool {
	select {
	case <-tk.grant:
		return true
	default:
		return false
	}
}

// TestWeightedGrantOrder: with deep backlogs for two tenants at weights
// 3:1 and one slot, grants interleave 3-to-1 — the stride invariant.
func TestWeightedGrantOrder(t *testing.T) {
	s := New(Config{Slots: 1, Weights: map[string]int{"a": 3, "b": 1}})
	// Occupy the slot so the backlog forms deterministically.
	blocker := mustEnqueue(t, s, "z", "blocker")
	if !granted(blocker) {
		t.Fatal("blocker not granted an empty scheduler's slot")
	}
	var ticks []*Ticket
	for i := 0; i < 8; i++ {
		ticks = append(ticks, mustEnqueue(t, s, "a", "a-"+string(rune('0'+i))))
		if i < 3 {
			ticks = append(ticks, mustEnqueue(t, s, "b", "b-"+string(rune('0'+i))))
		}
	}
	// Serve the backlog: each grant is released immediately after charging
	// one unit of service, as a 1-trial job would.
	s.Release(blocker)
	for range ticks {
		var cur *Ticket
		for _, tk := range ticks {
			if granted(tk) && tk.state == tkGranted {
				cur = tk
				break
			}
		}
		if cur == nil {
			t.Fatal("no granted ticket while backlog remains")
		}
		s.Charge(cur.Tenant, 12) // equal-cost jobs
		s.Release(cur)
	}
	log := s.Grants()[1:] // drop the blocker
	counts := map[byte]int{}
	// In any window of the first 8 grants, a should have ~3× b's share.
	for _, id := range log[:8] {
		counts[id[0]]++
	}
	if counts['a'] < 5 || counts['b'] < 1 {
		t.Fatalf("first 8 grants not weighted 3:1: %v (log %v)", counts, log)
	}
}

// TestDeterministicGrantLog: the same submission trace always yields
// the same grant order (names break vtime ties).
func TestDeterministicGrantLog(t *testing.T) {
	run := func() []string {
		s := New(Config{Slots: 1, Weights: map[string]int{"x": 2, "y": 1, "z": 1}})
		blocker := mustEnqueue(t, s, "blk", "blocker")
		var ticks []*Ticket
		for i := 0; i < 4; i++ {
			for _, tenant := range []string{"y", "x", "z"} {
				ticks = append(ticks, mustEnqueue(t, s, tenant, tenant+"-"+string(rune('0'+i))))
			}
		}
		s.Charge("blk", 5)
		s.Release(blocker)
		for range ticks {
			var cur *Ticket
			for _, tk := range ticks {
				if granted(tk) && tk.state == tkGranted {
					cur = tk
					break
				}
			}
			s.Charge(cur.Tenant, 7)
			s.Release(cur)
		}
		return s.Grants()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("grant log length changed: %d vs %d", len(got), len(first))
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("grant log diverged at %d: %v vs %v", j, got, first)
				}
			}
		}
	}
}

// TestQuotaAndQueueCaps: the global cap returns ErrQueueFull, the
// per-tenant quota a QuotaError naming the tenant, and bypass enqueues
// are exempt from both.
func TestQuotaAndQueueCaps(t *testing.T) {
	s := New(Config{Slots: 1, MaxQueued: 3, Quota: 2})
	blocker := mustEnqueue(t, s, "z", "blocker")
	if !granted(blocker) {
		t.Fatal("blocker not granted")
	}
	mustEnqueue(t, s, "a", "a-1")
	mustEnqueue(t, s, "a", "a-2")
	if _, err := s.Enqueue("a", "a-3", false); err == nil {
		t.Fatal("third queued job for tenant a should exceed quota 2")
	} else {
		var qe *QuotaError
		if !errors.As(err, &qe) || qe.Tenant != "a" {
			t.Fatalf("want QuotaError for tenant a, got %v", err)
		}
	}
	mustEnqueue(t, s, "b", "b-1")
	if _, err := s.Enqueue("c", "c-1", false); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull at global cap, got %v", err)
	}
	if _, err := s.Enqueue("c", "c-bypass", true); err != nil {
		t.Fatalf("bypass enqueue should ignore caps: %v", err)
	}
	if s.QuotaShed() != 1 {
		t.Fatalf("quota shed = %d, want 1", s.QuotaShed())
	}
}

// TestBatchAtomicity: a batch that would push one tenant past quota is
// rejected whole — nothing enqueued.
func TestBatchAtomicity(t *testing.T) {
	s := New(Config{Slots: 1, MaxQueued: 10, Quota: 2})
	blocker := mustEnqueue(t, s, "z", "blocker")
	_ = blocker
	mustEnqueue(t, s, "a", "a-0")
	before := s.Queued()
	_, err := s.EnqueueBatch([]BatchItem{
		{Tenant: "b", ID: "b-0"},
		{Tenant: "a", ID: "a-1"},
		{Tenant: "a", ID: "a-2"}, // a would reach 3 > quota 2
	})
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Tenant != "a" {
		t.Fatalf("want QuotaError for tenant a, got %v", err)
	}
	if got := s.Queued(); got != before {
		t.Fatalf("failed batch leaked queue entries: %d -> %d", before, got)
	}
	ticks, err := s.EnqueueBatch([]BatchItem{
		{Tenant: "b", ID: "b-0"},
		{Tenant: "a", ID: "a-1"},
	})
	if err != nil || len(ticks) != 2 {
		t.Fatalf("valid batch rejected: %v", err)
	}
}

// TestPreemptionVictim: a running job of an over-served tenant is
// marked once a cheaper tenant waits, and Preempt re-enqueues it.
func TestPreemptionVictim(t *testing.T) {
	s := New(Config{Slots: 1, Weights: map[string]int{"low": 1, "vip": 8}})
	lowTk := mustEnqueue(t, s, "low", "low-1")
	if !granted(lowTk) {
		t.Fatal("low-1 not granted")
	}
	s.Charge("low", 10)
	vipTk := mustEnqueue(t, s, "vip", "vip-1")
	if granted(vipTk) {
		t.Fatal("vip granted with no free slot")
	}
	// vip arrived level with low (arrival rule); one more charge makes low
	// strictly over-served and the mark must appear.
	if s.ShouldPreempt("low-1") {
		t.Fatal("victim marked before entitlement")
	}
	s.Charge("low", 10)
	if !s.ShouldPreempt("low-1") {
		t.Fatal("low-1 not marked after charging past the waiting vip")
	}
	lowTk2 := s.Preempt(lowTk)
	if !granted(vipTk) {
		t.Fatal("vip not granted the yielded slot")
	}
	if granted(lowTk2) {
		t.Fatal("preempted job re-granted while vip holds the slot")
	}
	if s.ShouldPreempt("vip-1") {
		t.Fatal("stale victim mark")
	}
	s.Charge("vip", 1)
	s.Release(vipTk)
	if !granted(lowTk2) {
		t.Fatal("preempted job not resumed after vip finished")
	}
	if s.Preemptions() != 1 {
		t.Fatalf("preemptions = %d, want 1", s.Preemptions())
	}
}

// TestWaitContextWithdraws: a cancelled waiter leaves the queue; a
// cancellation racing the grant returns the slot.
func TestWaitContextWithdraws(t *testing.T) {
	s := New(Config{Slots: 1})
	blocker := mustEnqueue(t, s, "z", "blocker")
	tk := mustEnqueue(t, s, "a", "a-1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tk.Wait(ctx); err == nil {
		t.Fatal("Wait with cancelled ctx returned nil")
	}
	if got := s.Queued(); got != 0 {
		t.Fatalf("withdrawn ticket still queued: %d", got)
	}
	s.Release(blocker)
	// The withdrawn ticket must not have consumed the freed slot.
	tk2 := mustEnqueue(t, s, "a", "a-2")
	if !granted(tk2) {
		t.Fatal("slot lost to a withdrawn ticket")
	}
}

// TestEvalSlotInflightGauge: the per-tenant and global inflight counts
// move with evaluation-slot ownership and drain to zero.
func TestEvalSlotInflightGauge(t *testing.T) {
	s := New(Config{Slots: 2, EvalSlots: 3})
	ctx := context.Background()
	for _, tenant := range []string{"a", "a", "b"} {
		if err := s.AcquireEval(ctx, tenant); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Inflight(); got != 3 {
		t.Fatalf("inflight = %d, want 3", got)
	}
	for _, st := range s.Stats() {
		if want := map[string]int{"a": 2, "b": 1}[st.Tenant]; st.InflightEvals != want {
			t.Fatalf("tenant %s inflight = %d, want %d", st.Tenant, st.InflightEvals, want)
		}
	}
	s.ReleaseEval("a")
	s.ReleaseEval("b")
	s.ReleaseEval("a")
	if got := s.Inflight(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
	for _, st := range s.Stats() {
		if st.InflightEvals != 0 {
			t.Fatalf("tenant %s inflight = %d, want 0", st.Tenant, st.InflightEvals)
		}
	}
}

// TestEvalSlotFIFO: with every slot held, waiters are served in arrival
// order, whatever their tenant — and whether the slot that comes back was
// an evaluation's own or one lent to a fold.
func TestEvalSlotFIFO(t *testing.T) {
	s := New(Config{EvalSlots: 1})
	ctx := context.Background()
	if !s.TryAcquireEval() {
		t.Fatal("no slot to lend on an idle scheduler")
	}
	order := make(chan string, 3)
	for i, tenant := range []string{"c", "a", "b"} {
		go func() {
			if err := s.AcquireEval(ctx, tenant); err != nil {
				order <- "err:" + err.Error()
				return
			}
			order <- tenant
		}()
		// The next waiter may only arrive once this one is queued.
		waitFor(t, func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return len(s.evalWaiters) == i+1
		})
	}
	release := s.ReturnEval
	for _, want := range []string{"c", "a", "b"} {
		release()
		select {
		case got := <-order:
			if got != want {
				t.Fatalf("slot went to %q, want %q", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter %q never served", want)
		}
		release = func() { s.ReleaseEval(want) }
	}
	release()
	if got := s.Inflight(); got != 0 {
		t.Fatalf("inflight = %d after all released, want 0", got)
	}
}

// TestEvalSlotTryAcquire: a slot is lent only while one is idle, counts in
// the one inflight gauge but in no tenant's, and is never lent past a
// waiter — also not the slot that waiter is about to be handed.
func TestEvalSlotTryAcquire(t *testing.T) {
	s := New(Config{EvalSlots: 2})
	ctx := context.Background()
	if err := s.AcquireEval(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if !s.TryAcquireEval() {
		t.Fatal("one of two slots held: the other was not lent")
	}
	if s.TryAcquireEval() {
		t.Fatal("a third slot was lent out of two")
	}
	if got := s.Inflight(); got != 2 {
		t.Fatalf("inflight = %d with one slot acquired and one lent, want 2", got)
	}
	for _, st := range s.Stats() {
		if st.InflightEvals != 1 {
			t.Fatalf("tenant %s inflight = %d, want 1: a lent slot is no tenant's evaluation", st.Tenant, st.InflightEvals)
		}
	}
	got := make(chan error, 1)
	go func() { got <- s.AcquireEval(ctx, "b") }()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.evalWaiters) == 1
	})
	s.ReturnEval() // to the waiter, before ReturnEval returns
	if s.TryAcquireEval() {
		t.Fatal("the slot a waiter was owed was lent again")
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	s.ReleaseEval("a")
	s.ReleaseEval("b")
	if got := s.Inflight(); got != 0 {
		t.Fatalf("inflight = %d after all released, want 0", got)
	}
}

// TestEvalSlotTryAcquireHammer: blocking acquirers and borrowers churn two
// slots while a sampler reads the scheduler's own state: never more slots
// held than there are, never a waiter while one is idle — so no borrow can
// have succeeded ahead of one — and everything drains to zero.
func TestEvalSlotTryAcquireHammer(t *testing.T) {
	const slots = 2
	s := New(Config{EvalSlots: slots})
	var held, over, refused atomic.Int64
	hold := func() {
		if held.Add(1) > slots {
			over.Add(1)
		}
		runtime.Gosched()
		held.Add(-1)
	}
	stop := make(chan struct{})
	sampled := make(chan int)
	go func() {
		bad := 0
		for {
			select {
			case <-stop:
				sampled <- bad
				return
			default:
			}
			s.mu.Lock()
			if s.inflight > slots || (len(s.evalWaiters) > 0 && s.inflight < slots) {
				bad++
			}
			s.mu.Unlock()
			if s.Inflight() > slots {
				bad++
			}
			runtime.Gosched()
		}
	}()
	// Three acquirers on two slots keep a waiter queued much of the time;
	// they churn until each borrower has been lent a slot 200 times, so
	// both outcomes of a borrow are exercised on every run.
	var acquirers, borrowers sync.WaitGroup
	borrowed := make(chan struct{})
	for g := 0; g < 3; g++ {
		acquirers.Add(1)
		go func() {
			defer acquirers.Done()
			tenant := []string{"a", "b"}[g%2]
			for {
				select {
				case <-borrowed:
					return
				default:
				}
				if err := s.AcquireEval(context.Background(), tenant); err != nil {
					t.Error(err)
					return
				}
				hold()
				s.ReleaseEval(tenant)
				runtime.Gosched()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		borrowers.Add(1)
		go func() {
			defer borrowers.Done()
			for n := 0; n < 200; runtime.Gosched() {
				if s.TryAcquireEval() {
					n++
					hold()
					s.ReturnEval()
				} else {
					refused.Add(1)
				}
			}
		}()
	}
	borrowers.Wait()
	close(borrowed)
	acquirers.Wait()
	close(stop)
	if bad := <-sampled; bad != 0 {
		t.Errorf("%d samples saw more than %d slots held, or a waiter beside an idle slot", bad, slots)
	}
	if n := over.Load(); n != 0 {
		t.Errorf("%d holders saw more than %d slots held", n, slots)
	}
	if got := s.Inflight(); got != 0 {
		t.Errorf("inflight = %d after churn, want 0", got)
	}
	for _, st := range s.Stats() {
		if st.InflightEvals != 0 {
			t.Errorf("tenant %s inflight = %d after churn, want 0", st.Tenant, st.InflightEvals)
		}
	}
	if refused.Load() == 0 {
		t.Error("no borrow was ever refused: the hammer never had both slots held")
	}
}

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEvalSlotAcquireCancelRace is the regression for the acquire/cancel
// race: when a context is cancelled concurrently with acquisition, the
// grant can land even though the context is already done. AcquireEval
// must hand that slot straight back and report the cancellation — it may
// never return an error while holding a slot, nor strand a slot the
// caller was told it did not get — and no storm may ever put more than
// EvalSlots evaluations in flight. Run under -race via make check.
func TestEvalSlotAcquireCancelRace(t *testing.T) {
	const slots = 2
	s := New(Config{EvalSlots: slots})
	var held, over atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 400; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			// Cancel on a sibling goroutine so it lands before, during
			// and after the grant across iterations.
			go cancel()
			tenant := []string{"a", "b", "c"}[i%3]
			if err := s.AcquireEval(ctx, tenant); err == nil {
				if held.Add(1) > slots || s.Inflight() > slots {
					over.Add(1)
				}
				held.Add(-1)
				s.ReleaseEval(tenant)
			}
		}()
	}
	wg.Wait()
	if n := over.Load(); n != 0 {
		t.Fatalf("%d acquisitions saw more than %d slots held", n, slots)
	}
	if got := s.Inflight(); got != 0 {
		t.Fatalf("%d slots still counted in use after churn", got)
	}
	for _, st := range s.Stats() {
		if st.InflightEvals != 0 {
			t.Fatalf("tenant %s inflight = %d after churn, want 0", st.Tenant, st.InflightEvals)
		}
	}
	// Every slot must still be acquirable; a leaked slot makes this time
	// out instead of hanging the suite.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < slots; i++ {
		if err := s.AcquireEval(ctx, "a"); err != nil {
			t.Fatalf("slot %d unacquirable after churn: %v (leaked by a cancelled AcquireEval)", i, err)
		}
	}
	if got := s.Inflight(); got != slots {
		t.Fatalf("Inflight %d after acquiring all %d slots", got, slots)
	}
	for i := 0; i < slots; i++ {
		s.ReleaseEval("a")
	}
}

// TestEvalSlotAcquirePreCancelled: a context that is already done must
// never acquire, free slot or not.
func TestEvalSlotAcquirePreCancelled(t *testing.T) {
	s := New(Config{EvalSlots: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		if err := s.AcquireEval(ctx, "a"); err == nil {
			t.Fatal("pre-cancelled context acquired a slot")
		}
	}
	if got := s.Inflight(); got != 0 {
		t.Fatalf("Inflight %d after refused acquires", got)
	}
	if err := s.AcquireEval(context.Background(), "a"); err != nil {
		t.Fatalf("slots unusable after refused acquires: %v", err)
	}
	// A waiter cancelled while queued is withdrawn, not granted later.
	waitCtx, waitCancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.AcquireEval(waitCtx, "b") }()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.evalWaiters) == 1
	})
	waitCancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled waiter acquired a slot")
	}
	s.ReleaseEval("a")
	if got := s.Inflight(); got != 0 {
		t.Fatalf("Inflight %d: the freed slot went to a withdrawn waiter", got)
	}
}

// TestArrivalRuleNoIdleCredit: a tenant idle through another's service
// re-enters level with it, not with banked credit.
func TestArrivalRuleNoIdleCredit(t *testing.T) {
	s := New(Config{Slots: 1})
	tk := mustEnqueue(t, s, "busy", "busy-1")
	s.Charge("busy", 100)
	idle := mustEnqueue(t, s, "idle", "idle-1")
	s.mu.Lock()
	bv, iv := s.tenants["busy"].vtime, s.tenants["idle"].vtime
	s.mu.Unlock()
	if iv < bv {
		t.Fatalf("idle arrival banked credit: idle vtime %v < busy %v", iv, bv)
	}
	s.Release(tk)
	if !granted(idle) {
		t.Fatal("idle tenant not granted freed slot")
	}
}

// TestWaitGrantNoDeadlock: concurrent waiters all eventually run.
func TestWaitGrantNoDeadlock(t *testing.T) {
	s := New(Config{Slots: 2})
	done := make(chan string, 20)
	for i := 0; i < 20; i++ {
		tenant := string(rune('a' + i%4))
		tk := mustEnqueue(t, s, tenant, tenant+"-"+string(rune('0'+i/4)))
		go func(tk *Ticket) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := tk.Wait(ctx); err != nil {
				done <- "err:" + err.Error()
				return
			}
			s.Charge(tk.Tenant, 3)
			s.Release(tk)
			done <- tk.ID
		}(tk)
	}
	for i := 0; i < 20; i++ {
		select {
		case id := <-done:
			if len(id) > 4 && id[:4] == "err:" {
				t.Fatalf("waiter failed: %s", id)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("waiters deadlocked")
		}
	}
}
