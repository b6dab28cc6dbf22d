package coord

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/serve"
)

// stubWorker is a minimal fake bhpod: it answers just enough of the
// worker API for coordinator tests, recording what it was asked.
type stubWorker struct {
	name string

	mu      sync.Mutex
	submits []serve.JobSpec
	tokens  []string // X-Submit-Token seen on each submission, single or batch

	health  atomic.Value // string: healthz status vocabulary
	metrics serve.Metrics
	nextID  atomic.Int64

	ts *httptest.Server
}

func newStubWorker(t *testing.T, name string) *stubWorker {
	t.Helper()
	w := &stubWorker{name: name}
	w.health.Store("ok")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(map[string]any{
			"status": w.health.Load().(string), "pending": 0,
		})
	})
	mux.HandleFunc("POST /jobs", func(rw http.ResponseWriter, r *http.Request) {
		var spec serve.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		w.mu.Lock()
		w.submits = append(w.submits, spec)
		w.tokens = append(w.tokens, r.Header.Get("X-Submit-Token"))
		w.mu.Unlock()
		id := fmt.Sprintf("job-%d", w.nextID.Add(1))
		rw.WriteHeader(http.StatusAccepted)
		json.NewEncoder(rw).Encode(serve.Snapshot{ID: id, Status: "queued", Spec: spec})
	})
	mux.HandleFunc("POST /jobs:batch", func(rw http.ResponseWriter, r *http.Request) {
		var batch struct {
			Jobs []serve.JobSpec `json:"jobs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		w.mu.Lock()
		w.submits = append(w.submits, batch.Jobs...)
		w.tokens = append(w.tokens, r.Header.Get("X-Submit-Token"))
		w.mu.Unlock()
		var out struct {
			Jobs []serve.Snapshot `json:"jobs"`
		}
		for _, spec := range batch.Jobs {
			out.Jobs = append(out.Jobs, serve.Snapshot{ID: fmt.Sprintf("job-%d", w.nextID.Add(1)), Status: "queued", Spec: spec})
		}
		rw.WriteHeader(http.StatusAccepted)
		json.NewEncoder(rw).Encode(out)
	})
	mux.HandleFunc("GET /jobs", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		n := len(w.submits)
		w.mu.Unlock()
		snaps := make([]serve.Snapshot, 0, n)
		for i := 1; i <= n; i++ {
			snaps = append(snaps, serve.Snapshot{ID: fmt.Sprintf("job-%d", i), Status: "running"})
		}
		json.NewEncoder(rw).Encode(snaps)
	})
	mux.HandleFunc("GET /jobs/{id}", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(serve.Snapshot{ID: r.PathValue("id"), Status: "running"})
	})
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		m := w.metrics
		w.mu.Unlock()
		json.NewEncoder(rw).Encode(m)
	})
	mux.HandleFunc("GET /methods", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("X-Stub-Node", w.name)
		fmt.Fprint(rw, `[{"name":"sha"}]`)
	})
	w.ts = httptest.NewServer(mux)
	t.Cleanup(w.ts.Close)
	return w
}

func (w *stubWorker) submitted() []serve.JobSpec {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]serve.JobSpec(nil), w.submits...)
}

// newTestCluster wires a coordinator (not started — tests drive probes
// with ProbeNow) over the given stub workers.
func newTestCluster(t *testing.T, workers ...*stubWorker) (*Coordinator, *httptest.Server) {
	t.Helper()
	nodes := make([]Node, len(workers))
	for i, w := range workers {
		nodes[i] = Node{Name: w.name, URL: w.ts.URL}
	}
	c, err := New(Config{
		Nodes: nodes,
		Probe: ProbeOptions{Interval: time.Hour, Timeout: 500 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	return c, ts
}

func postJob(t *testing.T, base string, spec serve.JobSpec) (*http.Response, serve.Snapshot) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap serve.Snapshot
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
	}
	return resp, snap
}

// TestCoordinatorRoutesByScope: jobs sharing an evaluation-cache scope
// must land on one node (warm caches), and the chosen node must be the
// ring owner of that scope. IDs come back node-qualified.
func TestCoordinatorRoutesByScope(t *testing.T) {
	a, b, c := newStubWorker(t, "a"), newStubWorker(t, "b"), newStubWorker(t, "c")
	coord, ts := newTestCluster(t, a, b, c)
	byName := map[string]*stubWorker{"a": a, "b": b, "c": c}

	// Ten specs over two scopes: same dataset/scale/seed shares a scope
	// regardless of method or search seed.
	for i := 0; i < 5; i++ {
		spec := serve.JobSpec{Dataset: "australian", Method: "sha", Seed: uint64(i + 1)}
		resp, snap := postJob(t, ts.URL, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s", i, resp.Status)
		}
		node, _, ok := splitID(snap.ID)
		if !ok {
			t.Fatalf("ID %q is not node-qualified", snap.ID)
		}
		if want := coord.ring.Owner(spec.CacheScope()); node != want {
			t.Fatalf("scope routed to %q, ring owner is %q", node, want)
		}
	}
	for i := 0; i < 5; i++ {
		postJob(t, ts.URL, serve.JobSpec{Dataset: "german", Method: "random", Seed: uint64(i + 1)})
	}

	// Every scope's jobs live on exactly one node.
	for _, ds := range []string{"australian", "german"} {
		holders := 0
		for _, w := range byName {
			n := 0
			for _, spec := range w.submitted() {
				if spec.Dataset == ds {
					n++
				}
			}
			if n > 0 {
				holders++
				if n != 5 {
					t.Fatalf("node %s holds %d of dataset %s's 5 jobs; scope split across nodes", w.name, n, ds)
				}
			}
		}
		if holders != 1 {
			t.Fatalf("dataset %s spread over %d nodes, want exactly 1", ds, holders)
		}
	}
}

// TestCoordinatorRoutesAroundDeadNode: when the scope's owner dies, new
// jobs for that scope flow to the ring successor instead of failing.
func TestCoordinatorRoutesAroundDeadNode(t *testing.T) {
	a, b := newStubWorker(t, "a"), newStubWorker(t, "b")
	coord, ts := newTestCluster(t, a, b)
	spec := serve.JobSpec{Dataset: "heart", Method: "sha"}
	owner := coord.ring.Owner(spec.CacheScope())
	victim, survivor := a, b
	if owner == "b" {
		victim, survivor = b, a
	}
	victim.ts.Close()
	for i := 0; i < 6; i++ { // cross DeadAfter
		coord.ProbeNow()
	}
	resp, snap := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with dead owner: %s", resp.Status)
	}
	if node, _, _ := splitID(snap.ID); node != survivor.name {
		t.Fatalf("routed to %q, want successor %q", snap.ID, survivor.name)
	}
}

// TestCoordinator429PassesThroughVerbatim: a worker shedding load prices
// its own Retry-After; the coordinator must relay status, header and body
// untouched rather than substitute its own — for a single submission and
// for a batch, which share the one submit loop.
func TestCoordinator429PassesThroughVerbatim(t *testing.T) {
	const body = `{"error":"pending queue full","retry_after_sec":17}`
	shed := func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Retry-After", "17")
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(rw, body)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprint(rw, `{"status":"overloaded","pending":64}`)
	})
	mux.HandleFunc("POST /jobs", shed)
	mux.HandleFunc("POST /jobs:batch", shed)
	shedding := httptest.NewServer(mux)
	defer shedding.Close()

	c, err := New(Config{Nodes: []Node{{Name: "a", URL: shedding.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c)
	defer ts.Close()

	spec, _ := json.Marshal(serve.JobSpec{Dataset: "australian", Method: "sha"})
	for path, payload := range map[string]string{
		"/jobs":       string(spec),
		"/jobs:batch": `{"jobs":[` + string(spec) + `]}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("POST %s: status %s, want 429", path, resp.Status)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "17" {
			t.Fatalf("POST %s: Retry-After %q, want the worker's priced %q", path, ra, "17")
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("POST %s: Content-Type %q, want the worker's", path, ct)
		}
		if string(got) != body {
			t.Fatalf("POST %s: body rewritten:\n got %s\nwant %s", path, got, body)
		}
	}
}

// TestAggregateStatus: the cluster healthz verdict table. The load-shed
// case is the one that matters operationally: a cluster where every live
// node is shedding is overloaded — pricing retries — not dead.
func TestAggregateStatus(t *testing.T) {
	mk := func(state NodeState, health string) NodeStatus {
		return NodeStatus{State: state, Health: health}
	}
	cases := []struct {
		name      string
		nodes     []NodeStatus
		want      string
		wantAlive int
	}{
		{"all ok", []NodeStatus{mk(StateAlive, "ok"), mk(StateAlive, "ok")}, "ok", 2},
		{"one dead", []NodeStatus{mk(StateAlive, "ok"), mk(StateDead, "")}, "degraded", 1},
		{"one degraded", []NodeStatus{mk(StateAlive, "ok"), mk(StateDegraded, "ok")}, "degraded", 2},
		{"one overloaded", []NodeStatus{mk(StateAlive, "ok"), mk(StateAlive, "overloaded")}, "degraded", 2},
		{"fully shed cluster is overloaded, not dead",
			[]NodeStatus{mk(StateAlive, "overloaded"), mk(StateAlive, "overloaded")}, "overloaded", 2},
		{"overloaded beats draining",
			[]NodeStatus{mk(StateAlive, "overloaded"), mk(StateAlive, "draining")}, "overloaded", 2},
		{"all draining", []NodeStatus{mk(StateAlive, "draining")}, "draining", 1},
		{"only degraded survivors", []NodeStatus{mk(StateDegraded, ""), mk(StateDead, "")}, "degraded", 1},
		{"all dead", []NodeStatus{mk(StateDead, ""), mk(StateDead, "")}, "dead", 0},
		{"empty", nil, "dead", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, alive, _ := aggregateStatus(tc.nodes)
			if status != tc.want || alive != tc.wantAlive {
				t.Fatalf("got (%q, %d), want (%q, %d)", status, alive, tc.want, tc.wantAlive)
			}
		})
	}
}

// TestCoordinatorHealthzFullyShed: end-to-end version of the satellite —
// every worker reports "overloaded" on its own /healthz; the aggregate
// must say overloaded with all nodes alive.
func TestCoordinatorHealthzFullyShed(t *testing.T) {
	a, b := newStubWorker(t, "a"), newStubWorker(t, "b")
	a.health.Store("overloaded")
	b.health.Store("overloaded")
	coord, ts := newTestCluster(t, a, b)
	coord.ProbeNow()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h clusterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "overloaded" {
		t.Fatalf("aggregate status %q, want overloaded (a fully-shed cluster is not dead)", h.Status)
	}
	if h.NodesAlive != 2 || h.NodesTotal != 2 {
		t.Fatalf("alive %d/%d, want 2/2", h.NodesAlive, h.NodesTotal)
	}
}

// TestCoordinatorMetricsAggregation: /metrics must sum worker counters
// (including the shipping trio) and count routed jobs.
func TestCoordinatorMetricsAggregation(t *testing.T) {
	a, b := newStubWorker(t, "a"), newStubWorker(t, "b")
	a.metrics = serve.Metrics{JobsDone: 3, Evaluations: 100, SegmentsShipped: 4, ShipRetries: 1, ShipBytes: 1000}
	b.metrics = serve.Metrics{JobsDone: 2, Evaluations: 50, SegmentsShipped: 6, ShipBytes: 500}
	_, ts := newTestCluster(t, a, b)

	postJob(t, ts.URL, serve.JobSpec{Dataset: "australian", Method: "sha"})
	postJob(t, ts.URL, serve.JobSpec{Dataset: "german", Method: "sha"})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m ClusterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.JobsRouted != 2 {
		t.Fatalf("jobs_routed %d, want 2", m.JobsRouted)
	}
	if m.JobsDone != 5 || m.Evaluations != 150 {
		t.Fatalf("sums: done %d evals %d, want 5 and 150", m.JobsDone, m.Evaluations)
	}
	if m.SegmentsShipped != 10 || m.ShipRetries != 1 || m.ShipBytes != 1500 {
		t.Fatalf("ship sums: %d/%d/%d, want 10/1/1500", m.SegmentsShipped, m.ShipRetries, m.ShipBytes)
	}
	if m.NodesAlive != 2 || len(m.Nodes) != 2 {
		t.Fatalf("nodes: alive %d, payloads %d, want 2 and 2", m.NodesAlive, len(m.Nodes))
	}
}

// TestCoordinatorReplace: a dead node's identity re-pointed at a fresh
// URL serves again immediately — same name, same qualified job IDs.
func TestCoordinatorReplace(t *testing.T) {
	a := newStubWorker(t, "a")
	coord, ts := newTestCluster(t, a)
	a.ts.Close()
	for i := 0; i < 6; i++ {
		coord.ProbeNow()
	}
	if st := coord.prober.stateOf("a"); st != StateDead {
		t.Fatalf("victim state %q, want dead", st)
	}

	replacement := newStubWorker(t, "a2") // name irrelevant: identity comes from replace
	replacement.mu.Lock()
	replacement.submits = make([]serve.JobSpec, 2) // pretend two adopted jobs
	replacement.mu.Unlock()

	body := fmt.Sprintf(`{"node":"a","url":%q}`, replacement.ts.URL)
	resp, err := http.Post(ts.URL+"/cluster/replace", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace: %s", resp.Status)
	}
	if st := coord.prober.stateOf("a"); st != StateAlive {
		t.Fatalf("replaced node state %q, want alive (fresh streak)", st)
	}
	resp, err = http.Get(ts.URL + "/jobs/a:job-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job on replacement: %s, want 200", resp.Status)
	}
	// The adopted jobs count into the failover metric.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m ClusterMetrics
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if m.JobsFailedOver != 2 {
		t.Fatalf("jobs_failed_over %d, want 2", m.JobsFailedOver)
	}

	// Replacing an unknown identity is a 404, not a silent add.
	resp, err = http.Post(ts.URL+"/cluster/replace", "application/json",
		strings.NewReader(`{"node":"ghost","url":"http://localhost:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("replace unknown node: %s, want 404", resp.Status)
	}
}

// TestCoordinatorRejectsBadNodeNames: names embed into job IDs, so the
// separators must be refused up front.
func TestCoordinatorRejectsBadNodeNames(t *testing.T) {
	for _, name := range []string{"", "a:b", "a/b", "a b"} {
		_, err := New(Config{Nodes: []Node{{Name: name, URL: "http://x"}}})
		if err == nil {
			t.Fatalf("node name %q accepted", name)
		}
	}
	_, err := New(Config{Nodes: []Node{
		{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"},
	}})
	if err == nil {
		t.Fatal("duplicate node name accepted")
	}
}
