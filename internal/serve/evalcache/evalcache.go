// Package evalcache memoizes hpo.Evaluator calls. Evaluations in this
// repository are deterministic functions of (configuration, budget, RNG
// stream): the evaluator derives every random choice — subset sampling,
// fold assignment, training seeds — from the RNG it is handed, and Split
// never advances the parent. A cache keyed on (config ID, budget, RNG
// fingerprint) therefore returns bit-identical fold scores, so repeated
// job submissions over the same dataset — re-runs, method comparisons,
// larger-budget follow-ups that revisit low rungs — skip the training
// entirely.
//
// The cache must be scoped to one evaluator identity (dataset, base
// config, fold builder, groups): config IDs are space-relative indices and
// carry no meaning across datasets or spaces. The serve layer keys caches
// by a job-spec signature for exactly this reason.
package evalcache

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"

	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// key identifies one deterministic evaluation.
type key struct {
	cfg    string
	budget int
	seed   uint64 // fingerprint of the RNG stream the evaluation consumes
}

// entry is one cached result on the recency list.
type entry struct {
	k      key
	scores []float64
}

// Cache wraps an Evaluator with a concurrency-safe LRU memo table.
type Cache struct {
	inner hpo.Evaluator
	// maxEntries bounds the table (0 = unbounded). When full, eviction is
	// cost-aware LRU: among the evictWindow least-recently-used entries
	// the lowest-budget one goes first (see evictOne). Recency tracks
	// which entries the active jobs still need while long-cold entries
	// from finished scopes age out; budget-weighting keeps expensive
	// full-budget results alive ahead of cheap low-rung ones.
	maxEntries int

	mu      sync.Mutex
	entries map[key]*list.Element // values are *entry
	recency list.List             // front = most recently used

	hits   atomic.Int64
	misses atomic.Int64
}

// New wraps inner with a cache holding at most maxEntries results
// (0 = unbounded), evicting least-recently-used entries at capacity.
func New(inner hpo.Evaluator, maxEntries int) *Cache {
	c := &Cache{
		inner:      inner,
		maxEntries: maxEntries,
		entries:    map[key]*list.Element{},
	}
	c.recency.Init()
	return c
}

// FullBudget implements hpo.Evaluator.
func (c *Cache) FullBudget() int { return c.inner.FullBudget() }

// Evaluate implements hpo.Evaluator: it returns the memoized fold scores
// when the same (config, budget, RNG stream) has been evaluated before,
// and delegates to the wrapped evaluator otherwise. Hits refresh the
// entry's recency. Concurrent misses on the same key may both compute;
// determinism makes the duplicate store a no-op, trading a little
// duplicated work for never blocking one evaluation on another.
func (c *Cache) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	k := key{cfg: cfg.ID(), budget: budget, seed: r.Fingerprint()}
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.recency.MoveToFront(el)
		scores := append([]float64(nil), el.Value.(*entry).scores...)
		c.mu.Unlock()
		c.hits.Add(1)
		return scores, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)
	// A miss trains for a whole evaluation on this P. Whatever this
	// goroutine woke since it last blocked — the stream writers of the
	// curve point it just published — sits in the P's runnext slot, and
	// with every pool slot training no other P is idle to steal it: step
	// aside once so the point reaches its subscribers first. Hits never
	// pay this; they return in microseconds.
	runtime.Gosched()
	scores, err := c.inner.Evaluate(cfg, budget, r)
	if err != nil {
		return nil, err
	}
	stored := append([]float64(nil), scores...)
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		// A concurrent miss stored the (identical) result first.
		c.recency.MoveToFront(el)
	} else {
		c.entries[k] = c.recency.PushFront(&entry{k: k, scores: stored})
		for c.maxEntries > 0 && len(c.entries) > c.maxEntries {
			c.evictOne()
		}
	}
	c.mu.Unlock()
	return scores, nil
}

// evictWindow is how many of the least-recently-used entries evictOne
// considers when choosing a victim. A small window keeps eviction O(1)
// amortized while still letting recorded cost matter near the cold end.
const evictWindow = 8

// evictOne removes one entry, weighting LRU victims by recorded budget:
// among the evictWindow least-recently-used entries it evicts the one
// with the lowest budget (ties go to the least recently used), because a
// low-budget entry is cheap to recompute while a full-budget entry
// represents the bulk of a job's spent wall-clock. The most recently
// used entry is never considered. Callers must hold c.mu.
func (c *Cache) evictOne() {
	victim := c.recency.Back()
	scanned := 1
	for el := victim.Prev(); el != nil && el != c.recency.Front() && scanned < evictWindow; el = el.Prev() {
		// Strict < keeps ties on the older (further-back) entry, so equal
		// budgets degrade to exact LRU order.
		if el.Value.(*entry).k.budget < victim.Value.(*entry).k.budget {
			victim = el
		}
		scanned++
	}
	c.recency.Remove(victim)
	delete(c.entries, victim.Value.(*entry).k)
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries := len(c.entries)
	c.mu.Unlock()
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: entries}
}
