package coord

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"
)

// NodeState is the prober's verdict on one worker.
type NodeState string

const (
	// StateAlive: the node answers /healthz. Its reported health (ok,
	// overloaded, draining) is carried separately — an overloaded node is
	// alive, just shedding writes.
	StateAlive NodeState = "alive"
	// StateDegraded: a few consecutive probes failed. The router stops
	// sending *new* jobs to it but existing jobs still resolve there —
	// a GC pause or transient partition should not scatter a scope's
	// jobs across the ring.
	StateDegraded NodeState = "degraded"
	// StateDead: failures crossed the dead threshold. The node's hash
	// range is served by its ring successors until a replacement (restored
	// from shipped journal segments) takes over its identity.
	StateDead NodeState = "dead"
	// StateDraining: the node answers probes but is leaving the ring —
	// no new jobs route to it while its running work finishes; reads
	// still resolve.
	StateDraining NodeState = "draining"
	// StateStandby: a registered spare, not in the ring and owning no
	// jobs, waiting to adopt a dead node's identity.
	StateStandby NodeState = "standby"
	// StateRestoring: the node is dead and an automated restore onto a
	// standby is in flight; reads return a retryable 503 until the
	// replacement takes over.
	StateRestoring NodeState = "restoring"
)

// The prober's pacing. A node misses degradedAfter consecutive probes
// before new jobs avoid it and deadAfter before its range fails over:
// two seconds rides out a GC pause or a brief partition, six is short
// enough that a dead node's scopes move on quickly. A probe times out at
// the interval, so one round never overlaps the next. rttAlpha is the
// RTT EWMA smoothing factor.
const (
	probeInterval = time.Second
	probeTimeout  = probeInterval
	degradedAfter = 2
	deadAfter     = 6
	rttAlpha      = 0.3
)

// NodeStatus is one node's probed condition, served by GET /cluster.
type NodeStatus struct {
	Name  string    `json:"name"`
	URL   string    `json:"url"`
	State NodeState `json:"state"`
	// Health is the node's own /healthz status vocabulary (ok, overloaded,
	// draining); empty until the first successful probe.
	Health string `json:"health,omitempty"`
	// RTTMillis is the EWMA-smoothed probe round-trip time.
	RTTMillis float64 `json:"rtt_ms,omitempty"`
	// Fails is the current consecutive-failure streak.
	Fails int `json:"fails,omitempty"`
	// LastError is the most recent probe failure, cleared on success.
	LastError string `json:"last_error,omitempty"`
	// Pending is the node's reported pending-queue depth.
	Pending int `json:"pending"`
	// LastProbe is when the prober last completed a probe of this node
	// (success or failure); zero before the first one.
	LastProbe time.Time `json:"last_probe"`
	// Quarantined marks a standby that failed a restore attempt; the
	// failover pipeline prefers clean standbys and only falls back to
	// quarantined ones when nothing else is left.
	Quarantined bool `json:"quarantined,omitempty"`
}

// prober maintains per-node liveness by polling each worker's /healthz.
// A node starts alive (optimistically — the router should not refuse
// traffic before the first probe lands) and moves through degraded to
// dead on consecutive failures; one success fully restores it.
type prober struct {
	client *http.Client

	// onDead, when set (before start), fires once per alive→dead
	// transition of a ring member (standbys excluded) — the automated
	// failover trigger. Called without the prober lock held.
	onDead func(name string)

	mu    sync.Mutex
	nodes map[string]*probeEntry

	stop chan struct{}
	wg   sync.WaitGroup
}

type probeEntry struct {
	url       string
	state     NodeState // base probe verdict: alive/degraded/dead
	health    string
	rttMs     float64
	fails     int
	lastErr   string
	pending   int
	lastProbe time.Time

	// Overlays on the probe verdict, managed by the coordinator.
	standby     bool // registered spare, not a ring member
	draining    bool // leaving the ring; no new jobs
	restoring   bool // dead with an automated restore in flight
	quarantined bool // standby that failed a restore
}

// effectiveState folds the coordinator-managed overlays into the probe
// verdict — what routing and GET /cluster see.
func (e *probeEntry) effectiveState() NodeState {
	switch {
	case e.standby:
		return StateStandby
	case e.restoring && e.state == StateDead:
		// Only a dead node shows restoring: if it resurrects mid-pipeline
		// the probe verdict wins and the pipeline stands down.
		return StateRestoring
	case e.draining && e.state == StateAlive:
		return StateDraining
	}
	return e.state
}

// newProber returns a prober tracking no nodes; start launches its loop.
func newProber(client *http.Client) *prober {
	return &prober{
		client: client,
		nodes:  map[string]*probeEntry{},
		stop:   make(chan struct{}),
	}
}

// track adds (or re-points) a ring member, or registers a standby: a
// spare probed for visibility, never routed to. Re-pointing resets the
// node to a fresh alive state (a replacement deserves a clean failure
// streak) with no overlay (a promoted standby becomes a plain member).
func (p *prober) track(name, url string, standby bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nodes[name] = &probeEntry{url: url, state: StateAlive, standby: standby}
}

// untrack forgets a node (leave, or a standby consumed by promotion
// under a different name).
func (p *prober) untrack(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.nodes, name)
}

// update applies f to the node's entry under the lock, if it is tracked
// — how the coordinator flips the overlays (draining, restoring,
// quarantined) it manages on top of the probe verdict.
func (p *prober) update(name string, f func(e *probeEntry)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.nodes[name]; ok {
		f(e)
	}
}

// standbyInfo is one registered spare as the failover pipeline sees it.
type standbyInfo struct {
	name        string
	url         string
	quarantined bool
}

// standbys lists registered spares, clean ones first, in name order
// within each group — the promotion preference order.
func (p *prober) standbys() []standbyInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []standbyInfo
	for name, e := range p.nodes {
		if e.standby {
			out = append(out, standbyInfo{name: name, url: e.url, quarantined: e.quarantined})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].quarantined != out[j].quarantined {
			return out[j].quarantined
		}
		return out[i].name < out[j].name
	})
	return out
}

// memberURL returns a ring member's current URL; ok is false for an
// untracked name and for a standby.
func (p *prober) memberURL(name string) (url string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.nodes[name]
	if !ok || e.standby {
		return "", false
	}
	return e.url, true
}

// stateOf returns the node's state (StateDead if untracked).
func (p *prober) stateOf(name string) NodeState {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.nodes[name]; ok {
		return e.effectiveState()
	}
	return StateDead
}

// status snapshots every tracked node, in name order.
func (p *prober) status() []NodeStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]NodeStatus, 0, len(p.nodes))
	for name, e := range p.nodes {
		out = append(out, NodeStatus{
			Name:        name,
			URL:         e.url,
			State:       e.effectiveState(),
			Health:      e.health,
			RTTMillis:   e.rttMs,
			Fails:       e.fails,
			LastError:   e.lastErr,
			Pending:     e.pending,
			LastProbe:   e.lastProbe,
			Quarantined: e.quarantined,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// start launches the probe loop; close stop to end it.
func (p *prober) start() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(probeInterval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.probeAll()
			}
		}
	}()
}

// shutdown stops the loop and waits for it.
func (p *prober) shutdown() {
	close(p.stop)
	p.wg.Wait()
}

// probeAll probes every tracked node concurrently and waits for the round.
func (p *prober) probeAll() {
	p.mu.Lock()
	urls := make(map[string]string, len(p.nodes))
	for name, e := range p.nodes {
		urls[name] = e.url
	}
	p.mu.Unlock()
	var wg sync.WaitGroup
	for name, url := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.probeOne(name, url)
		}()
	}
	wg.Wait()
}

// probeOne hits one node's /healthz and folds the outcome into its entry.
// Any transport error or non-200 is a failure; a 200 with any status
// vocabulary (ok, overloaded, draining) is a success — an overloaded node
// is alive and must not be declared dead, it is shedding by design.
func (p *prober) probeOne(name, url string) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	start := time.Now()
	body, err := getJSON[struct {
		Status  string `json:"status"`
		Pending int    `json:"pending"`
	}](ctx, p.client, url+"/healthz")
	rtt := time.Since(start)

	p.mu.Lock()
	e, ok := p.nodes[name]
	if !ok || e.url != url {
		// Replaced mid-probe: the verdict belongs to the old URL.
		p.mu.Unlock()
		return
	}
	e.lastProbe = time.Now()
	var died bool
	if err != nil {
		e.fails++
		e.lastErr = err.Error()
		switch {
		case e.fails >= deadAfter:
			died = e.state != StateDead && !e.standby
			e.state = StateDead
		case e.fails >= degradedAfter:
			e.state = StateDegraded
		}
	} else {
		e.fails = 0
		e.lastErr = ""
		e.state = StateAlive
		e.health = body.Status
		e.pending = body.Pending
		ms := float64(rtt) / float64(time.Millisecond)
		if e.rttMs == 0 {
			e.rttMs = ms
		} else {
			e.rttMs = (1-rttAlpha)*e.rttMs + rttAlpha*ms
		}
	}
	onDead := p.onDead
	p.mu.Unlock()
	if died && onDead != nil {
		onDead(name)
	}
}
