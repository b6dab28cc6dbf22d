package serve

import (
	"testing"
	"time"
)

// TestScopeSweepRespectsHolders drives acquireScope/sweepScopes directly:
// a scope with live references is never evicted no matter how stale its
// lastUsed looks, release is once-only, and an idle scope past the TTL is
// swept and then lazily rebuilt on the next acquire.
func TestScopeSweepRespectsHolders(t *testing.T) {
	m := NewManager(Config{PoolSize: 1, MaxJobs: 1, ScopeTTL: time.Hour})
	t.Cleanup(func() { shutdown(t, m) })
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
