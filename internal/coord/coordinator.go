package coord

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"enhancedbhpo/internal/serve"
)

// Node names one worker and where to reach it.
type Node struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Config tunes the Coordinator.
type Config struct {
	// Nodes is the boot-time worker set. Names are ring identities: a
	// replacement node keeps the dead node's name (automated failover or
	// POST /cluster/replace) so its hash range and its node-qualified job
	// IDs stay routable. With DataDir set, the membership journal replays
	// on top of this set, so runtime joins/leaves survive a restart.
	Nodes []Node
	// Standbys is the boot-time spare pool: nodes registered for
	// automated failover, outside the ring until promoted.
	Standbys []Node
	// Replicas is the ring's virtual-node count per node. 0 selects 64.
	Replicas int
	// Probe tunes the heartbeat prober.
	Probe ProbeOptions
	// Client performs all worker requests. nil selects a default with no
	// overall timeout (SSE streams are long-lived; probes carry their own
	// per-request timeouts).
	Client *http.Client
	// DataDir, when non-empty, persists membership operations to a
	// crash-safe journal (members.jsonl) so a restarted coordinator
	// recovers the current ring — runtime joins, leaves, standby
	// registrations and automated replaces — not the boot-time one.
	DataDir string
	// SinkRoots are the shipped-replica roots the failover pipeline
	// verifies and restores from: each holds one subdirectory per node
	// name (a DirSink root or a ship receiver's -ship-recv-dir).
	SinkRoots []string
	// AutoFailover turns on the zero-operator pipeline: a node declared
	// dead triggers verify → restore onto a standby → re-point, with no
	// manual replace call.
	AutoFailover bool
	// RestoreBackoff is the initial delay between failed restore rounds
	// (all standbys exhausted, or no verified replica yet); it doubles up
	// to RestoreMaxBackoff. 0 selects 500ms / 15s.
	RestoreBackoff    time.Duration
	RestoreMaxBackoff time.Duration
	// DrainPoll paces the leave handler's wait for a draining node's
	// running jobs. 0 selects 250ms.
	DrainPoll time.Duration
}

func (c Config) withDefaults() Config {
	if c.RestoreBackoff <= 0 {
		c.RestoreBackoff = 500 * time.Millisecond
	}
	if c.RestoreMaxBackoff <= 0 {
		c.RestoreMaxBackoff = 15 * time.Second
	}
	if c.DrainPoll <= 0 {
		c.DrainPoll = 250 * time.Millisecond
	}
	return c
}

// Coordinator routes the bhpod HTTP API across a cluster of workers.
//
// Job placement is by consistent hash on the spec's evaluation-cache
// scope, so all jobs sharing synthesized data and folds land on one node
// and hit its warm caches. Job IDs leave the coordinator node-qualified
// ("a:job-3"); every per-job route parses the node back out, which makes
// reads independent of the ring (a job stays addressable even after the
// scope's ownership would hash elsewhere).
type Coordinator struct {
	cfg    Config
	ring   *Ring
	prober *prober
	client *http.Client
	mux    *http.ServeMux

	started time.Time
	// ctx is cancelled by Shutdown: it ends failover retry loops, their
	// in-flight restore requests and leave waits.
	ctx    context.Context
	cancel context.CancelFunc

	jobsRouted       atomic.Int64
	jobsFailedOver   atomic.Int64
	submitRetries    atomic.Int64
	autoRestores     atomic.Int64
	restoresFailed   atomic.Int64
	restoreDurMicros atomic.Int64 // cumulative restore pipeline time

	journal *memberLog // nil without Config.DataDir

	failMu    sync.Mutex
	restoring map[string]bool // failover pipelines in flight, by node
	failovers sync.WaitGroup  // the same pipelines, for Shutdown to join

	evMu   sync.Mutex
	events []ClusterEvent // bounded cluster incident log
}

// New wires a coordinator around the node set, replaying the membership
// journal in cfg.DataDir (when set) on top of the boot-time nodes. Call
// Start to begin heartbeat probing and Shutdown to stop it.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:       cfg,
		ring:      NewRing(cfg.Replicas),
		client:    cfg.Client,
		mux:       http.NewServeMux(),
		started:   time.Now(),
		restoring: map[string]bool{},
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	if c.client == nil {
		c.client = &http.Client{}
	}
	c.prober = newProber(cfg.Probe, c.client)
	c.prober.onDead = c.onNodeDead
	for _, n := range cfg.Nodes {
		if err := validNode(n); err != nil {
			return nil, err
		}
		if _, dup := c.prober.memberURL(n.Name); dup {
			return nil, fmt.Errorf("coord: duplicate node %q", n.Name)
		}
		c.applyMemberOp(MemberOp{Op: OpJoin, Node: n.Name, URL: n.URL})
	}
	for _, n := range cfg.Standbys {
		if err := validNode(n); err != nil {
			return nil, err
		}
		c.applyMemberOp(MemberOp{Op: OpStandby, Node: n.Name, URL: n.URL, On: true})
	}
	if cfg.DataDir != "" {
		// The journal replays on top of the boot-time set: runtime
		// membership changes win over stale flags.
		ops, err := replayMemberLog(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		for _, op := range ops {
			c.applyMemberOp(op)
		}
		log, err := openMemberLog(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		c.journal = log
	}
	if c.ring.Len() == 0 {
		return nil, fmt.Errorf("coord: no nodes")
	}
	c.mux.HandleFunc("POST /jobs", c.submitJob)
	c.mux.HandleFunc("POST /jobs:batch", c.submitBatch)
	c.mux.HandleFunc("GET /jobs", c.listJobs)
	c.mux.HandleFunc("GET /tenants", c.listTenants)
	c.mux.HandleFunc("GET /jobs/{id}", c.jobProxy)
	c.mux.HandleFunc("DELETE /jobs/{id}", c.jobProxy)
	c.mux.HandleFunc("GET /jobs/{id}/{sub...}", c.jobProxy)
	c.mux.HandleFunc("GET /methods", c.listMethods)
	c.mux.HandleFunc("GET /healthz", c.healthz)
	c.mux.HandleFunc("GET /metrics", c.metrics)
	c.mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) { c.writeStatusList(w) })
	c.mux.HandleFunc("GET /cluster/events", c.clusterEvents)
	c.mux.HandleFunc("POST /cluster/replace", c.memberEndpoint(c.replaceNode))
	c.mux.HandleFunc("POST /cluster/join", c.memberEndpoint(c.joinNode))
	c.mux.HandleFunc("POST /cluster/leave", c.memberEndpoint(c.leaveNode))
	c.mux.HandleFunc("POST /cluster/drain", c.memberEndpoint(c.drainNode))
	c.mux.HandleFunc("POST /cluster/standby", c.memberEndpoint(c.standbyNode))
	return c, nil
}

// validNode checks a node's name (a ring identity, embedded in job IDs)
// and URL.
func validNode(n Node) error {
	if n.Name == "" || strings.ContainsAny(n.Name, ":/ ") {
		return fmt.Errorf("coord: bad node name %q (used in job IDs; no colons, slashes or spaces)", n.Name)
	}
	if n.URL == "" {
		return fmt.Errorf("coord: node %s: empty URL", n.Name)
	}
	return nil
}

// applyMemberOp folds one membership operation into the live state —
// the single mutation point shared by boot config, journal replay and
// the runtime handlers (which journal first, then apply).
func (c *Coordinator) applyMemberOp(op MemberOp) {
	url := strings.TrimSuffix(op.URL, "/")
	switch op.Op {
	case OpJoin:
		c.ring.Add(op.Node)
		c.prober.track(op.Node, url, false)
	case OpLeave:
		c.ring.Remove(op.Node)
		c.prober.untrack(op.Node)
	case OpDrain:
		c.prober.update(op.Node, func(e *probeEntry) { e.draining = op.On })
	case OpStandby:
		if op.On {
			c.prober.track(op.Node, url, true)
		} else {
			c.prober.untrack(op.Node)
		}
	case OpQuarantine:
		c.prober.update(op.Node, func(e *probeEntry) { e.quarantined = op.On })
	}
}

// journalAndApply persists the operation (when a journal is configured)
// and applies it. The journal write comes first: an acknowledged
// membership change must survive a coordinator crash.
func (c *Coordinator) journalAndApply(op MemberOp) error {
	if err := c.journal.append(op); err != nil {
		return err
	}
	c.applyMemberOp(op)
	return nil
}

// Start launches heartbeat probing.
func (c *Coordinator) Start() { c.prober.start() }

// Shutdown stops the prober, cancels and joins every in-flight failover
// pipeline, and only then closes the membership journal: nothing the
// coordinator started is still talking to a node, or appending a
// membership operation, once it returns.
func (c *Coordinator) Shutdown() {
	c.failMu.Lock() // orders the cancel against onNodeDead's failovers.Add
	c.cancel()
	c.failMu.Unlock()
	c.prober.shutdown()
	c.failovers.Wait()
	c.journal.close()
}

// ProbeNow runs one synchronous probe round — the test hook (and the
// replace handler's immediate confirmation) so callers need not wait an
// interval for verdicts.
func (c *Coordinator) ProbeNow() { c.prober.probeAll() }

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// qualifyID and splitID translate between a worker's local job ID and the
// cluster-wide node-qualified form the coordinator hands out.
func qualifyID(node, id string) string { return node + ":" + id }

func splitID(qualified string) (node, id string, ok bool) {
	node, id, ok = strings.Cut(qualified, ":")
	return node, id, ok && node != "" && id != ""
}

// errorBody mirrors the worker API's JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// routeNode picks the worker for a new job with the given cache scope:
// the ring owner when servable, else the first servable successor,
// excluding nodes in skip (already tried this request). New work skips
// degraded nodes (they may be seconds from dead, and a fresh scope is
// cheap to build elsewhere) and draining ones (they are leaving the
// ring); a degraded candidate is still preferred over refusing when
// nothing is fully alive.
func (c *Coordinator) routeNode(scope string, skip map[string]bool) (string, bool) {
	var degraded string
	for _, n := range c.ring.Candidates(scope) {
		if skip[n] {
			continue
		}
		switch c.prober.stateOf(n) {
		case StateAlive:
			return n, true
		case StateDegraded:
			if degraded == "" {
				degraded = n
			}
		}
	}
	return degraded, degraded != ""
}

// newSubmitToken mints the idempotency key one client submission carries
// across every routing attempt.
func newSubmitToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The process RNG failing is unrecoverable for token minting;
		// submitting without idempotency risks double-running jobs.
		panic(fmt.Sprintf("coord: reading random bytes: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// batchOf is the POST /jobs:batch envelope: specs going in, snapshots
// coming back.
type batchOf[T any] struct {
	Jobs []T `json:"jobs"`
}

func (c *Coordinator) submitJob(w http.ResponseWriter, r *http.Request) {
	submit(c, w, r, "/jobs", 1<<20, "job spec",
		func(spec *serve.JobSpec) (string, error) { return spec.CacheScope(), nil },
		func(ack *serve.Snapshot) []*string { return []*string{&ack.ID} })
}

// submitBatch lands the whole batch on ONE node — picked by the first
// spec's cache scope — so the all-or-nothing admission guarantee (every
// item admitted against the global cap and every tenant's quota, or
// none) holds exactly: it is the node's own atomic batch enqueue, not a
// coordinator simulation spread over several nodes.
func (c *Coordinator) submitBatch(w http.ResponseWriter, r *http.Request) {
	submit(c, w, r, "/jobs:batch", 8<<20, "batch",
		func(batch *batchOf[serve.JobSpec]) (string, error) {
			if len(batch.Jobs) == 0 {
				return "", errors.New("empty batch")
			}
			return batch.Jobs[0].CacheScope(), nil
		},
		func(ack *batchOf[serve.Snapshot]) []*string {
			ids := make([]*string, len(ack.Jobs))
			for i := range ack.Jobs {
				ids[i] = &ack.Jobs[i].ID
			}
			return ids
		})
}

// submit is the one forwarding path behind POST /jobs and POST
// /jobs:batch. The body (a Req, named what in errors) is forwarded
// verbatim to the worker that scopeOf's evaluation-cache scope picks, and
// the worker's 202 (an Ack) flows back with only the job IDs that ids
// points at rewritten to their node-qualified form. Any other worker
// answer — a 429 with its *priced* Retry-After, a validation 400, a
// draining 503 — passes through untouched: status, headers and body, so
// clients back off on the owning node's real backlog, not a number the
// coordinator made up.
//
// A node that dies between routing and ack does not fail the client:
// the submission retries on the next ring candidate. Every attempt
// carries the same coordinator-minted X-Submit-Token, so a replay — the
// first node actually accepted the job but the ack was lost, and a later
// restore resurrects it under the same token — never double-runs: the
// worker's token table returns the existing job instead.
func submit[Req, Ack any](c *Coordinator, w http.ResponseWriter, r *http.Request, path string, limit int64, what string,
	scopeOf func(*Req) (string, error), ids func(*Ack) []*string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var req Req
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding %s: %v", what, err)
		return
	}
	scope, err := scopeOf(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	token := newSubmitToken()
	tried := map[string]bool{}
	var lastErr error
	var lastNode string
	for {
		node, ok := c.routeNode(scope, tried)
		if !ok {
			if lastErr != nil {
				writeError(w, http.StatusBadGateway, "node %s: %v (no further candidates)", lastNode, lastErr)
			} else {
				writeError(w, http.StatusServiceUnavailable, "no servable node for scope")
			}
			return
		}
		nodeURL, _ := c.prober.memberURL(node)
		fwd, err := http.NewRequestWithContext(r.Context(), http.MethodPost, nodeURL+path, bytes.NewReader(body))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		fwd.Header.Set("Content-Type", "application/json")
		fwd.Header.Set("X-Submit-Token", token)
		resp, err := c.client.Do(fwd)
		if err != nil {
			// The node died (or vanished) between routing and ack: retry
			// on the next ring candidate with the same token. Note the
			// client context: if the *client* hung up, stop instead of
			// spraying the ring.
			if r.Context().Err() != nil {
				writeError(w, http.StatusBadGateway, "node %s: %v", node, err)
				return
			}
			tried[node] = true
			lastErr, lastNode = err, node
			c.submitRetries.Add(1)
			continue
		}
		defer resp.Body.Close() // no further iteration: every path below returns
		if resp.StatusCode != http.StatusAccepted {
			maps.Copy(w.Header(), resp.Header)
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
			return
		}
		var ack Ack
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			writeError(w, http.StatusBadGateway, "node %s: decoding response: %v", node, err)
			return
		}
		qualified := ids(&ack)
		for _, id := range qualified {
			*id = qualifyID(node, *id)
		}
		c.jobsRouted.Add(int64(len(qualified)))
		writeJSON(w, http.StatusAccepted, ack)
		return
	}
}

// getJSON GETs url and decodes a 200 answer's JSON body: every read the
// coordinator makes of a worker for its own use — probes, fan-outs,
// adopted-job counts, idle checks.
func getJSON[T any](ctx context.Context, client *http.Client, url string) (T, error) {
	var v T
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return v, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v, err
}

// answers reports whether a node in this state is worth asking: a ring
// member (standbys own no jobs) that is not dead or being restored.
func (st NodeStatus) answers() bool {
	return st.State != StateStandby && st.State != StateDead && st.State != StateRestoring
}

// fanOut GETs path, with the request's query (?tenant=X and any future
// filter apply on each node), on every node of states that answers, at
// once, and returns the decoded bodies by node name. A node that cannot
// answer contributes nothing rather than failing the whole request — the
// cluster view degrades, it does not disappear.
func fanOut[T any](c *Coordinator, r *http.Request, path string, states []NodeStatus) map[string]T {
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	out := make(map[string]T, len(states))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, st := range states {
		if !st.answers() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := getJSON[T](r.Context(), c.client, st.URL+path); err == nil {
				mu.Lock()
				out[st.Name] = v
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// tenantsBody is the GET /tenants payload, a worker's and the merged one.
type tenantsBody struct {
	Tenants []serve.TenantStatus `json:"tenants"`
}

// listTenants merges every answering node's GET /tenants rows by name:
// counters sum across the cluster, the weight is the configured one
// (identical on every node by construction), and virtual time reports
// the maximum — each node runs its own clock, so the merged value is a
// high-water mark, not a cluster-wide total.
func (c *Coordinator) listTenants(w http.ResponseWriter, r *http.Request) {
	merged := map[string]*serve.TenantStatus{}
	for _, body := range fanOut[tenantsBody](c, r, "/tenants", c.prober.status()) {
		for _, row := range body.Tenants {
			t, ok := merged[row.Tenant]
			if !ok {
				cp := row
				merged[row.Tenant] = &cp
				continue
			}
			if row.Weight > t.Weight {
				t.Weight = row.Weight
			}
			if row.VTime > t.VTime {
				t.VTime = row.VTime
			}
			t.Queued += row.Queued
			t.Running += row.Running
			t.InflightEvals += row.InflightEvals
			t.Granted += row.Granted
			t.Evaluations += row.Evaluations
			t.ServiceUnits += row.ServiceUnits
			t.Shed += row.Shed
			t.Preemptions += row.Preemptions
			t.JobsQueued += row.JobsQueued
			t.JobsRunning += row.JobsRunning
			t.JobsDone += row.JobsDone
			t.JobsFailed += row.JobsFailed
			t.JobsCancelled += row.JobsCancelled
		}
	}
	out := make([]serve.TenantStatus, 0, len(merged))
	for _, t := range merged {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	writeJSON(w, http.StatusOK, tenantsBody{Tenants: out})
}

// resolveJob maps a node-qualified job ID to (node, local ID, node URL),
// writing the error response itself when the ID or node is unusable. A
// dead node yields 503 — retryable, because a replacement adopting the
// node's identity will serve the same ID — where an unknown node name is
// a hard 404.
func (c *Coordinator) resolveJob(w http.ResponseWriter, qualified string) (node, id, nodeURL string, ok bool) {
	node, id, ok = splitID(qualified)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q (cluster job IDs are node-qualified, e.g. %q)", qualified, "a:job-1")
		return "", "", "", false
	}
	nodeURL, known := c.prober.memberURL(node)
	if !known {
		writeError(w, http.StatusNotFound, "no node %q", node)
		return "", "", "", false
	}
	switch c.prober.stateOf(node) {
	case StateDead:
		writeError(w, http.StatusServiceUnavailable, "node %s is dead; awaiting replacement", node)
		return "", "", "", false
	case StateRestoring:
		writeError(w, http.StatusServiceUnavailable, "node %s is being restored; retry shortly", node)
		return "", "", "", false
	}
	return node, id, nodeURL, true
}

// jobProxy serves every per-job route — GET|DELETE /jobs/{id} and GET
// /jobs/{id}/<anything> — through one reverse proxy. The coordinator does
// not list the worker's sub-routes: it swaps the node-qualified ID for
// the local one, forwards the rest of the path and the query as they
// came, and the worker 404s what it does not serve. The proxy copies
// headers both ways (Last-Event-ID reaches the worker's event hub, which
// replays the backlog past it, so a client that reconnects after a worker
// failover resumes exactly where it left off), flushes text/event-stream
// as it arrives, and cancels the upstream request when the client hangs
// up, so the worker releases its subscriber.
func (c *Coordinator) jobProxy(w http.ResponseWriter, r *http.Request) {
	qualified := r.PathValue("id")
	node, id, nodeURL, ok := c.resolveJob(w, qualified)
	if !ok {
		return
	}
	sub := strings.TrimPrefix(r.URL.Path, "/jobs/"+qualified)
	target, err := url.Parse(nodeURL + "/jobs/" + id + sub)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	target.RawQuery = r.URL.RawQuery
	(&httputil.ReverseProxy{
		Transport:  c.client.Transport,
		BufferPool: proxyBuffers,
		Rewrite:    func(pr *httputil.ProxyRequest) { pr.Out.URL, pr.Out.Host = target, "" },
		ModifyResponse: func(resp *http.Response) error {
			// Only /jobs/{id} itself answers with the job's ID; sub-route
			// payloads (events, trace) embed none and pass as they came.
			if sub != "" || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted) {
				return nil
			}
			return requalifySnapshot(resp, node)
		},
		ErrorHandler: func(w http.ResponseWriter, _ *http.Request, err error) {
			writeError(w, http.StatusBadGateway, "node %s: %v", node, err)
		},
	}).ServeHTTP(w, r)
}

// copyBuffers recycles the proxy's 32 KB copy buffers; without a pool it
// allocates one for every response it relays.
type copyBuffers struct{ sync.Pool }

var proxyBuffers = &copyBuffers{sync.Pool{New: func() any { return new([32 << 10]byte) }}}

func (p *copyBuffers) Get() []byte    { return p.Pool.Get().(*[32 << 10]byte)[:] }
func (p *copyBuffers) Put(buf []byte) { p.Pool.Put((*[32 << 10]byte)(buf)) }

// requalifySnapshot rewrites the job ID in a worker's snapshot answer
// back to its node-qualified form and fixes the length to match.
func requalifySnapshot(resp *http.Response, node string) error {
	var snap serve.Snapshot
	err := json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	snap.ID = qualifyID(node, snap.ID)
	body, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n') // what writeJSON's encoder ends with
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return nil
}

// listJobs merges every answering node's GET /jobs under qualified IDs,
// sorted by ID for a stable listing.
func (c *Coordinator) listJobs(w http.ResponseWriter, r *http.Request) {
	out := make([]serve.Snapshot, 0)
	for node, snaps := range fanOut[[]serve.Snapshot](c, r, "/jobs", c.prober.status()) {
		for _, snap := range snaps {
			snap.ID = qualifyID(node, snap.ID)
			out = append(out, snap)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

// listMethods answers GET /methods with the first servable node's list —
// the method registry is compiled into every worker, so any one speaks
// for the cluster.
func (c *Coordinator) listMethods(w http.ResponseWriter, r *http.Request) {
	for _, name := range c.ring.Nodes() {
		if c.prober.stateOf(name) == StateDead {
			continue
		}
		nodeURL, _ := c.prober.memberURL(name)
		if methods, err := getJSON[json.RawMessage](r.Context(), c.client, nodeURL+"/methods"); err == nil {
			writeJSON(w, http.StatusOK, methods)
			return
		}
	}
	writeError(w, http.StatusServiceUnavailable, "no servable node")
}

// clusterHealth is the aggregate GET /healthz payload.
type clusterHealth struct {
	// Status summarizes the cluster with the same vocabulary the nodes
	// use, plus degraded and dead: ok (every node alive and accepting),
	// degraded (some capacity lost, writes still land), overloaded (every
	// live node is shedding — a fully-shed cluster is overloaded, not
	// dead), draining, or dead (no node answers).
	Status     string       `json:"status"`
	NodesAlive int          `json:"nodes_alive"`
	NodesTotal int          `json:"nodes_total"`
	UptimeSec  float64      `json:"uptime_sec"`
	Nodes      []NodeStatus `json:"nodes"`
}

// aggregateStatus folds per-node verdicts into one cluster status, and
// counts the ring members and those of them that answer. Standbys are
// spares, not members: they contribute nothing to the aggregate (a
// cluster of healthy workers plus an idle standby is "ok").
func aggregateStatus(nodes []NodeStatus) (status string, alive, members int) {
	var aliveOK, overloaded, draining, impaired int
	for _, n := range nodes {
		if n.State == StateStandby {
			continue
		}
		members++
		if n.answers() {
			alive++
		}
		switch {
		case !n.answers() || n.State == StateDegraded:
			impaired++
		case n.State == StateDraining || n.Health == "draining":
			draining++
		case n.Health == "overloaded":
			overloaded++
		default:
			aliveOK++
		}
	}
	switch {
	case aliveOK > 0 && impaired == 0 && overloaded == 0 && draining == 0:
		return "ok", alive, members
	case aliveOK > 0:
		return "degraded", alive, members
	case overloaded > 0:
		// Every reachable node is shedding by admission control: the
		// cluster is overloaded — alive, pricing retries — not dead.
		return "overloaded", alive, members
	case draining > 0:
		return "draining", alive, members
	case alive > 0:
		return "degraded", alive, members
	default:
		return "dead", alive, members
	}
}

func (c *Coordinator) healthz(w http.ResponseWriter, r *http.Request) {
	nodes := c.prober.status()
	status, alive, members := aggregateStatus(nodes)
	writeJSON(w, http.StatusOK, clusterHealth{
		Status:     status,
		NodesAlive: alive,
		NodesTotal: members,
		UptimeSec:  time.Since(c.started).Seconds(),
		Nodes:      nodes,
	})
}

// ClusterMetrics is the aggregate GET /metrics payload: cluster counters
// plus each live node's own metrics under its name.
type ClusterMetrics struct {
	NodesAlive     int   `json:"nodes_alive"`
	NodesTotal     int   `json:"nodes_total"`
	JobsRouted     int64 `json:"jobs_routed"`
	JobsFailedOver int64 `json:"jobs_failed_over"`
	// SubmitRetries counts submissions transparently retried on a ring
	// successor after the routed node failed before acking.
	SubmitRetries int64 `json:"submit_retries"`
	// AutoRestores counts completed zero-operator failovers (dead node
	// restored onto a standby); RestoresFailed counts standby promotion
	// attempts that failed (the standby is quarantined and the next one
	// tried); RestoreDurationSeconds accumulates dead→alive pipeline time.
	AutoRestores           int64   `json:"auto_restores"`
	RestoresFailed         int64   `json:"restores_failed"`
	RestoreDurationSeconds float64 `json:"restore_duration_seconds"`
	UptimeSec              float64 `json:"uptime_sec"`
	JobsQueued             int     `json:"jobs_queued"`
	JobsRunning            int     `json:"jobs_running"`
	JobsDone               int     `json:"jobs_done"`
	JobsFailed             int     `json:"jobs_failed"`
	JobsCancelled          int     `json:"jobs_cancelled"`
	PendingDepth           int     `json:"pending_depth"`
	Evaluations            int64   `json:"evaluations"`
	Preemptions            int64   `json:"preemptions"`
	QuotaShed              int64   `json:"quota_shed"`
	SegmentsShipped        int64   `json:"segments_shipped"`
	ShipRetries            int64   `json:"ship_retries"`
	ShipBytes              int64   `json:"ship_bytes"`

	Nodes map[string]serve.Metrics `json:"nodes"`
}

// metrics aggregates every live node's /metrics. Sums cover the headline
// counters (job states, evaluations, shipping); the full per-node payloads
// ride along for anything finer.
func (c *Coordinator) metrics(w http.ResponseWriter, r *http.Request) {
	statuses := c.prober.status()
	out := ClusterMetrics{
		JobsRouted:             c.jobsRouted.Load(),
		JobsFailedOver:         c.jobsFailedOver.Load(),
		SubmitRetries:          c.submitRetries.Load(),
		AutoRestores:           c.autoRestores.Load(),
		RestoresFailed:         c.restoresFailed.Load(),
		RestoreDurationSeconds: float64(c.restoreDurMicros.Load()) / 1e6,
		UptimeSec:              time.Since(c.started).Seconds(),
		Nodes:                  fanOut[serve.Metrics](c, r, "/metrics", statuses),
	}
	_, out.NodesAlive, out.NodesTotal = aggregateStatus(statuses)
	for _, m := range out.Nodes {
		out.JobsQueued += m.JobsQueued
		out.JobsRunning += m.JobsRunning
		out.JobsDone += m.JobsDone
		out.JobsFailed += m.JobsFailed
		out.JobsCancelled += m.JobsCancelled
		out.PendingDepth += m.PendingDepth
		out.Evaluations += m.Evaluations
		out.Preemptions += m.Preemptions
		out.QuotaShed += m.QuotaShed
		out.SegmentsShipped += m.SegmentsShipped
		out.ShipRetries += m.ShipRetries
		out.ShipBytes += m.ShipBytes
	}
	writeJSON(w, http.StatusOK, out)
}
