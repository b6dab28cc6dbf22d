package coord

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/serve"
	"enhancedbhpo/internal/serve/shipper"
)

// freezeEvaluator blocks every evaluation on a gate once armed — the
// fault-injection hook that wedges a node's jobs mid-run so the test can
// kill it with work in flight.
type freezeEvaluator struct {
	inner hpo.Evaluator
	armed *atomic.Bool
	gate  chan struct{}
}

func (f *freezeEvaluator) FullBudget() int { return f.inner.FullBudget() }

func (f *freezeEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	if f.armed.Load() {
		<-f.gate
	}
	return f.inner.Evaluate(cfg, budget, r)
}

// workerProc is one in-process "machine": a serve.Node — the assembly
// cmd/bhpod runs, so what these suites kill, restore and promote is what
// the binary ships — fronted by its own HTTP server.
type workerProc struct {
	ts      *httptest.Server
	armed   atomic.Bool
	gate    chan struct{}
	unfroze sync.Once
}

func (wp *workerProc) release() { wp.unfroze.Do(func() { close(wp.gate) }) }

// startNodeProc is how every worker, replacement and standby of the
// cluster e2es comes to be: serve.StartNode with a two-slot pool and the
// (unarmed) freeze hook. The test's end releases the hook, closes the
// server and closes the node — manager, journal, then its shipper.
func startNodeProc(t *testing.T, opts serve.NodeOptions) *workerProc {
	t.Helper()
	wp := &workerProc{gate: make(chan struct{})}
	opts.Config.PoolSize, opts.Config.MaxJobs = 2, 8
	opts.Config.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
		return &freezeEvaluator{inner: inner, armed: &wp.armed, gate: wp.gate}
	}
	node, err := serve.StartNode(opts)
	if err != nil {
		t.Fatal(err)
	}
	wp.ts = httptest.NewServer(node)
	t.Cleanup(func() {
		wp.release()
		wp.ts.CloseClientConnections()
		wp.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		node.Close(ctx)
	})
	return wp
}

func startWorkerProc(t *testing.T, shipRoot, name string) *workerProc {
	return startWorkerProcMulti(t, []string{shipRoot}, name)
}

// startWorkerProcMulti starts a worker shipping synchronously to one
// replica directory per sink root — the N-way replication layout, bhpod
// -node NAME -ship-sync -ship-to ROOT... Its trace log rotates every few
// KiB, so a replica holds sealed, checksummed segments from the first life.
func startWorkerProcMulti(t *testing.T, shipRoots []string, name string) *workerProc {
	t.Helper()
	return startNodeProc(t, serve.NodeOptions{
		Config: serve.Config{DataDir: t.TempDir(), NodeName: name, TraceMaxBytes: 4 << 10},
		ShipTo: shipRoots,
		Ship:   shipper.Options{Sync: true},
	})
}

// sseClient consumes a job's event feed, tracking the frames it has
// seen; reconnections resume past the recorded sequence.
type sseClient struct {
	mu   sync.Mutex
	seen []events.Event
}

func (c *sseClient) last() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.seen) == 0 {
		return 0
	}
	return c.seen[len(c.seen)-1].Seq
}

func (c *sseClient) snapshot() []events.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]events.Event(nil), c.seen...)
}

// stream reads one SSE connection, appending frames until the stream
// breaks, the context ends, or a terminal event arrives (returns true).
func (c *sseClient) stream(ctx context.Context, url string, after uint64) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	if after > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(after, 10))
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) == 0 {
				continue
			}
			var ev events.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return false, err
			}
			data = nil
			c.mu.Lock()
			c.seen = append(c.seen, ev)
			c.mu.Unlock()
			if ev.Terminal {
				return true, nil
			}
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		}
	}
	return false, sc.Err()
}

// jobSnap fetches one job snapshot through the coordinator.
func jobSnap(t *testing.T, base, qid string) (serve.Snapshot, int) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + qid)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap serve.Snapshot
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
	}
	return snap, resp.StatusCode
}

// waitTerminal polls a job through the coordinator until it reaches a
// terminal status.
func waitTerminal(t *testing.T, base, qid string) serve.Snapshot {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		snap, code := jobSnap(t, base, qid)
		terminal := snap.Status == serve.StatusDone || snap.Status == serve.StatusFailed || snap.Status == serve.StatusCancelled
		if code == http.StatusOK && terminal {
			return snap
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", qid)
	panic("unreachable")
}

// TestFailoverNodeKill is the cluster kill/failover e2e, the PR's
// acceptance scenario. Three real workers (journaled managers with
// synchronous shippers replicating into one ship root) run a storm of
// jobs routed through a coordinator. The node owning a watched job is
// killed -9 mid-run — its server vanishes with an evaluation in flight,
// no shutdown, no flush. The coordinator must declare it dead while the
// cluster stays servable; a replacement restored from the shipped
// segments and swapped in via /cluster/replace must serve every job the
// dead node ever acked — terminal jobs with byte-identical pre-crash
// curves, the mid-run job as cancelled/interrupted — and the SSE watcher
// must resume through the coordinator without a sequence gap.
//
// Runs ~2s of storm by default; `make failover` sets BHPOD_CHAOS_SECONDS=30.
func TestFailoverNodeKill(t *testing.T) {
	secs := 2.0
	if s := os.Getenv("BHPOD_CHAOS_SECONDS"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			secs = v
		}
	}
	stormDeadline := time.Now().Add(time.Duration(secs * float64(time.Second) / 2))

	shipRoot := t.TempDir()
	names := []string{"a", "b", "c"}

	spec := func(seed uint64) serve.JobSpec {
		return serve.JobSpec{
			Dataset: "australian", Scale: 0.06, DatasetSeed: seed,
			Method: "sha", NumHPs: 2, MaxConfigs: 6, Iters: 2, Seed: 3,
		}
	}
	// The coordinator routes on this same ring shape (same names, same
	// default replica count), so ownership is computable up front.
	ring := NewRing(0)
	for _, n := range names {
		ring.Add(n)
	}
	watched := spec(1)
	victimName := ring.Owner(watched.CacheScope())

	workers := map[string]*workerProc{}
	nodes := make([]Node, 0, len(names))
	for _, n := range names {
		wp := startWorkerProc(t, shipRoot, n)
		workers[n] = wp
		nodes = append(nodes, Node{Name: n, URL: wp.ts.URL})
	}
	coord, err := New(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord)
	t.Cleanup(front.Close)

	// Storm: batches with scopes on the victim and elsewhere, each batch
	// run to completion, until half the chaos budget is spent.
	stormSeeds := func(round int) []uint64 {
		victimOwned, others := []uint64{}, []uint64{}
		for seed := uint64(round * 1000); len(victimOwned) < 2 || len(others) < 2; seed++ {
			if ring.Owner(spec(seed).CacheScope()) == victimName {
				if len(victimOwned) < 2 {
					victimOwned = append(victimOwned, seed)
				}
			} else if len(others) < 2 {
				others = append(others, seed)
			}
		}
		return append(victimOwned, others...)
	}
	var acked []string
	for round := 1; ; round++ {
		var ids []string
		for _, seed := range stormSeeds(round) {
			resp, snap := postJob(t, front.URL, spec(seed))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("storm submit: %s", resp.Status)
			}
			ids = append(ids, snap.ID)
		}
		for _, id := range ids {
			if snap := waitTerminal(t, front.URL, id); snap.Status != serve.StatusDone {
				t.Fatalf("storm job %s: %s, want done", id, snap.Status)
			}
		}
		acked = append(acked, ids...)
		if !time.Now().Before(stormDeadline) {
			break
		}
	}

	// Pre-kill ground truth: every terminal snapshot the victim served.
	preKill := map[string]serve.Snapshot{}
	for _, id := range acked {
		if strings.HasPrefix(id, victimName+":") {
			snap, code := jobSnap(t, front.URL, id)
			if code != http.StatusOK {
				t.Fatalf("pre-kill snapshot %s: %d", id, code)
			}
			preKill[id] = snap
		}
	}
	if len(preKill) == 0 {
		t.Fatal("storm placed no jobs on the victim")
	}

	// Freeze the victim and land the watched job on it: it reaches
	// running, then wedges inside its first evaluation.
	victim := workers[victimName]
	victim.armed.Store(true)
	resp, wsnap := postJob(t, front.URL, watched)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("watched submit: %s", resp.Status)
	}
	watchedID := wsnap.ID
	if node, _, _ := splitID(watchedID); node != victimName {
		t.Fatalf("watched job routed to %q, want victim %q", watchedID, victimName)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		snap, code := jobSnap(t, front.URL, watchedID)
		if code == http.StatusOK && snap.Status == serve.StatusRunning {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("watched job never reached running (last %s)", snap.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The watcher follows the job through the coordinator. The frozen job
	// emits nothing further, so the stream goes quiet after the backlog.
	watcher := &sseClient{}
	streamErr := make(chan error, 1)
	go func() {
		_, err := watcher.stream(context.Background(), front.URL+"/jobs/"+watchedID+"/events", 0)
		streamErr <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); watcher.last() == 0; {
		if !time.Now().Before(deadline) {
			t.Fatal("watcher saw no events before the kill")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill -9: the server vanishes mid-request — no Shutdown, no journal
	// close, no shipper flush. The manager object is simply abandoned
	// with its evaluation wedged, exactly what a dead machine leaves.
	victim.ts.CloseClientConnections()
	victim.ts.Close()
	<-streamErr // the watcher's connection died with the node
	preKillLast := watcher.last()
	if preKillLast == 0 {
		t.Fatal("watcher lost its events")
	}

	// The prober walks the victim through degraded to dead; the cluster
	// stays servable (degraded, not dead) and the victim's jobs answer
	// 503 — retryable — while awaiting the replacement.
	for range deadAfter {
		coord.ProbeNow()
	}
	if st := coord.prober.stateOf(victimName); st != StateDead {
		t.Fatalf("victim state %q after kill, want dead", st)
	}
	var health clusterHealth
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "degraded" || health.NodesAlive != 2 {
		t.Fatalf("cluster health %s alive=%d after kill, want degraded alive=2", health.Status, health.NodesAlive)
	}
	if _, code := jobSnap(t, front.URL, watchedID); code != http.StatusServiceUnavailable {
		t.Fatalf("dead node's job answered %d, want 503", code)
	}

	// Failover: restore the shipped replica onto a "fresh machine" (bhpod
	// -restore-from into an empty, pre-created data dir) and point the
	// victim's ring identity at it.
	rts := startNodeProc(t, serve.NodeOptions{
		Config:      serve.Config{DataDir: t.TempDir(), NodeName: victimName},
		RestoreFrom: []string{filepath.Join(shipRoot, victimName)},
	}).ts
	body, _ := json.Marshal(map[string]string{"node": victimName, "url": rts.URL})
	rresp, err := http.Post(front.URL+"/cluster/replace", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("replace: %s", rresp.Status)
	}

	// Zero job loss: every ID the cluster ever acked resolves again.
	lresp, err := http.Get(front.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listed []serve.Snapshot
	if err := json.NewDecoder(lresp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	have := map[string]bool{}
	for _, snap := range listed {
		have[snap.ID] = true
	}
	for _, id := range append(append([]string{}, acked...), watchedID) {
		if !have[id] {
			t.Fatalf("job %s lost across failover", id)
		}
	}

	// Byte-identical pre-crash state: the replacement serves the dead
	// node's terminal jobs exactly as the dead node did.
	for id, pre := range preKill {
		post, code := jobSnap(t, front.URL, id)
		if code != http.StatusOK {
			t.Fatalf("post-failover snapshot %s: %d", id, code)
		}
		preCurve, _ := json.Marshal(pre.Curve)
		postCurve, _ := json.Marshal(post.Curve)
		if !bytes.Equal(preCurve, postCurve) {
			t.Fatalf("job %s curve changed across failover:\npre:  %s\npost: %s", id, preCurve, postCurve)
		}
		preScores, _ := json.Marshal([]any{pre.Status, pre.BestScore, pre.TestScore, pre.Evaluations, pre.BestConfig})
		postScores, _ := json.Marshal([]any{post.Status, post.BestScore, post.TestScore, post.Evaluations, post.BestConfig})
		if !bytes.Equal(preScores, postScores) {
			t.Fatalf("job %s result changed across failover:\npre:  %s\npost: %s", id, preScores, postScores)
		}
	}

	// The mid-run job came back interrupted, and the watcher resumes
	// through the coordinator without a sequence gap: the replacement
	// primed its hub from the shipped trace, so the first new frame is
	// exactly preKillLast+1.
	terminal, err := watcher.stream(context.Background(), front.URL+"/jobs/"+watchedID+"/events", preKillLast)
	if err != nil || !terminal {
		t.Fatalf("resumed stream: terminal=%v err=%v", terminal, err)
	}
	seen := watcher.snapshot()
	for i := 1; i < len(seen); i++ {
		if seen[i].Seq != seen[i-1].Seq+1 {
			t.Fatalf("sequence gap across failover: %d then %d", seen[i-1].Seq, seen[i].Seq)
		}
	}
	final := seen[len(seen)-1]
	if final.Seq != preKillLast+1 || !final.Terminal {
		t.Fatalf("resume did not continue at %d: got seq %d terminal=%v", preKillLast+1, final.Seq, final.Terminal)
	}
	if final.Status != string(serve.StatusCancelled) || final.Reason != string(serve.ReasonInterrupted) {
		t.Fatalf("watched job ended %s/%s, want cancelled/interrupted", final.Status, final.Reason)
	}
	wpost, _ := jobSnap(t, front.URL, watchedID)
	if wpost.Status != serve.StatusCancelled || wpost.Reason != serve.ReasonInterrupted {
		t.Fatalf("watched job snapshot %s/%s, want cancelled/interrupted", wpost.Status, wpost.Reason)
	}

	// The cluster is whole again and the failover is visible in metrics.
	coord.ProbeNow()
	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var cm ClusterMetrics
	if err := json.NewDecoder(mresp.Body).Decode(&cm); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if cm.NodesAlive != 3 {
		t.Fatalf("nodes_alive %d after replacement, want 3", cm.NodesAlive)
	}
	if cm.JobsFailedOver == 0 {
		t.Fatal("jobs_failed_over is zero after a failover")
	}
	if cm.SegmentsShipped == 0 || cm.ShipBytes == 0 {
		t.Fatalf("ship metrics empty: %+v", cm)
	}
}
