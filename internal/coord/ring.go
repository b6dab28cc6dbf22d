// Package coord is the cluster coordinator: it re-exports the bhpod HTTP
// API over a set of worker nodes, routing each job to the node that owns
// its evaluation-cache scope on a consistent-hash ring (co-locating a
// scope's jobs keeps its memoized fold scores warm), probing node health,
// and steering clients around dead nodes until a replacement — restored
// from shipped journal segments — takes over the dead node's identity and
// hash range.
package coord

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// defaultReplicas is the virtual-node count per physical node. 64 points
// per node keeps the largest/smallest ownership arc within a few percent
// of even for small clusters while the ring stays tiny (a 16-node cluster
// is 1024 points).
const defaultReplicas = 64

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over node names. Placement depends only
// on the member names and the replica count — never on insertion order or
// process history — so a restarted coordinator routes every scope exactly
// where its predecessor did, and adding or removing one node remaps only
// that node's share of the keyspace.
type Ring struct {
	replicas int

	mu     sync.RWMutex
	nodes  map[string]struct{}
	points []point // sorted by (hash, node)
}

// NewRing returns an empty ring. replicas <= 0 selects the default (64).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	return &Ring{replicas: replicas, nodes: map[string]struct{}{}}
}

// hashKey positions a routing key (or virtual node) on the ring.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// Add inserts a node. Idempotent.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, point{hash: hashKey(node + "#" + strconv.Itoa(i)), node: node})
	}
	r.sortLocked()
}

// Remove deletes a node. Idempotent.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// sortLocked keeps the points ordered by (hash, node) — the node
// tiebreak makes ownership deterministic even in the astronomically
// unlikely event of a 64-bit hash collision between virtual nodes.
func (r *Ring) sortLocked() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Len reports the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Owner returns the node owning key: the first virtual node at or past
// the key's hash, wrapping at the top. "" on an empty ring.
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.searchLocked(hashKey(key))].node
}

// searchLocked finds the index of the first point at or past h, wrapped.
func (r *Ring) searchLocked(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Candidates returns every member in the key's preference order: the
// owner first, then each distinct node met walking the ring clockwise.
// The router takes the first candidate the prober considers servable, so
// a key's jobs fail over deterministically while its owner is down.
func (r *Ring) Candidates(key string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.nodes))
	seen := make(map[string]struct{}, len(r.nodes))
	start := r.searchLocked(hashKey(key))
	for i := 0; i < len(r.points) && len(seen) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.node]; ok {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}
