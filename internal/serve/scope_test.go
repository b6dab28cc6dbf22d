package serve

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestScopeSweepRespectsHolders drives acquireScope/sweepScopes directly:
// a scope with live references is never evicted no matter how stale its
// lastUsed looks, release is once-only, and an idle scope past the TTL is
// swept and then lazily rebuilt on the next acquire.
func TestScopeSweepRespectsHolders(t *testing.T) {
	m := NewManager(Config{PoolSize: 1, MaxJobs: 1, ScopeTTL: time.Hour})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	spec := smallSpec().withDefaults()

	sc1, release1, err := m.acquireScope(spec)
	if err != nil {
		t.Fatal(err)
	}
	sc2, release2, err := m.acquireScope(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sc1 != sc2 {
		t.Fatal("two acquisitions of the same spec built different scopes")
	}

	farFuture := time.Now().Add(48 * time.Hour)
	if n := m.sweepScopes(farFuture); n != 0 {
		t.Fatalf("sweep evicted %d scopes while 2 references were held", n)
	}
	release1()
	release1() // once-only: a double release must not drop the second ref
	if n := m.sweepScopes(farFuture); n != 0 {
		t.Fatalf("sweep evicted %d scopes while 1 reference was held", n)
	}
	release2()
	// Released but not yet idle past the TTL: still resident.
	if n := m.sweepScopes(time.Now()); n != 0 {
		t.Fatalf("sweep evicted %d scopes before the TTL elapsed", n)
	}
	if got := m.Metrics().CacheScopes; got != 1 {
		t.Fatalf("CacheScopes = %d, want 1 before eviction", got)
	}
	if n := m.sweepScopes(farFuture); n != 1 {
		t.Fatalf("sweep evicted %d scopes, want 1 (idle past TTL)", n)
	}
	if got := m.Metrics().CacheScopes; got != 0 {
		t.Fatalf("CacheScopes = %d after eviction, want 0", got)
	}
	if got := m.Metrics().ScopesEvicted; got != 1 {
		t.Fatalf("ScopesEvicted = %d, want 1", got)
	}

	// Next use rebuilds the scope lazily.
	sc3, release3, err := m.acquireScope(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sc3 == nil {
		t.Fatal("rebuild after eviction returned nil scope")
	}
	if n := m.sweepScopes(farFuture); n != 0 {
		t.Fatal("sweep took the freshly rebuilt, still-held scope")
	}
	release3()
}

// TestScopeTTLEvictionDeterministicRebuild is the end-to-end TTL check:
// run a job, let the janitor evict the idle scope, run the identical job
// again, and require a bitwise-identical outcome from the rebuilt scope —
// eviction may cost cache warmth but never reproducibility.
func TestScopeTTLEvictionDeterministicRebuild(t *testing.T) {
	m := NewManager(Config{PoolSize: 2, MaxJobs: 1, ScopeTTL: 50 * time.Millisecond})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})

	job1, err := m.SubmitToken(smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, job1.ID, func(s Status) bool { return s == StatusDone }, "done")
	snap1 := job1.Snapshot()

	// The janitor (tick = TTL/4) must evict the now-idle scope.
	deadline := time.Now().Add(30 * time.Second)
	for {
		mt := m.Metrics()
		if mt.CacheScopes == 0 && mt.ScopesEvicted >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scope never evicted: %d live, %d evicted", mt.CacheScopes, mt.ScopesEvicted)
		}
		time.Sleep(10 * time.Millisecond)
	}

	job2, err := m.SubmitToken(smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, job2.ID, func(s Status) bool { return s == StatusDone }, "done")
	snap2 := job2.Snapshot()

	if snap1.BestScore == nil || snap2.BestScore == nil {
		t.Fatal("missing best score")
	}
	if *snap1.BestScore != *snap2.BestScore {
		t.Fatalf("best score drifted across rebuild: %v vs %v", *snap1.BestScore, *snap2.BestScore)
	}
	if snap1.TestScore == nil || snap2.TestScore == nil {
		t.Fatal("missing test score")
	}
	if *snap1.TestScore != *snap2.TestScore {
		t.Fatalf("test score drifted across rebuild: %v vs %v", *snap1.TestScore, *snap2.TestScore)
	}
	if got, want := fmt.Sprint(snap2.BestConfig), fmt.Sprint(snap1.BestConfig); got != want {
		t.Fatalf("best config drifted across rebuild:\n  first  %s\n  second %s", want, got)
	}
	if snap1.Evaluations != snap2.Evaluations {
		t.Fatalf("evaluation count drifted across rebuild: %d vs %d", snap1.Evaluations, snap2.Evaluations)
	}
	// The second run went through a freshly built scope: a cold cache
	// proves the old one was really dropped, not resurrected. (The short
	// TTL may already have evicted the rebuilt scope again by now — that
	// shows the same thing via the eviction counter.)
	mt := m.Metrics()
	switch {
	case mt.CacheScopes == 1 && mt.CacheMisses == 0:
		t.Fatal("rebuilt scope served no cache misses; second run never hit a fresh cache")
	case mt.CacheScopes == 0 && mt.ScopesEvicted < 2:
		t.Fatalf("scope table empty but only %d evictions recorded", mt.ScopesEvicted)
	}
}
