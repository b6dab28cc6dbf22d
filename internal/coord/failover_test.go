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

// kill is kill -9: the server vanishes mid-request — no Shutdown, no
// journal close, no shipper flush. The node is simply abandoned with its
// evaluations wedged, exactly what a dead machine leaves.
func (wp *workerProc) kill() {
	wp.ts.CloseClientConnections()
	wp.ts.Close()
}

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
		wp.kill()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		node.Close(ctx)
	})
	return wp
}

// startWorkerProc starts a worker shipping synchronously to one replica
// directory per sink root — bhpod -node NAME -ship-sync -ship-to ROOT...
// Its trace log rotates every few KiB, so a replica holds sealed,
// checksummed segments from the first life.
func startWorkerProc(t *testing.T, name string, shipRoots ...string) *workerProc {
	t.Helper()
	return startNodeProc(t, serve.NodeOptions{
		Config: serve.Config{DataDir: t.TempDir(), NodeName: name, TraceMaxBytes: 4 << 10},
		ShipTo: shipRoots,
		Ship:   shipper.Options{Sync: true},
	})
}

// startStandbyProc starts one in-process spare, bhpod -standby: blank
// until the coordinator promotes it, then the dead node restored from its
// replica.
func startStandbyProc(t *testing.T) *workerProc {
	t.Helper()
	return startNodeProc(t, serve.NodeOptions{Config: serve.Config{DataDir: t.TempDir()}, Standby: true})
}

// stormSpec is the tiny job every cluster e2e submits; its dataset seed
// picks the evaluation-cache scope, and so the node the ring routes it to.
func stormSpec(seed uint64) serve.JobSpec {
	return serve.JobSpec{
		Dataset: "australian", Scale: 0.06, DatasetSeed: seed,
		Method: "sha", NumHPs: 2, MaxConfigs: 6, Iters: 2, Seed: 3,
	}
}

// seedsOwnedBy returns the first n dataset seeds from `from` on whose
// stormSpec the ring routes to owner.
func seedsOwnedBy(ring *Ring, owner string, n int, from uint64) []uint64 {
	var out []uint64
	for seed := from; len(out) < n; seed++ {
		if ring.Owner(stormSpec(seed).CacheScope()) == owner {
			out = append(out, seed)
		}
	}
	return out
}

// runJobs submits one stormSpec per seed through base, waits for every
// job to finish done and returns their IDs.
func runJobs(t *testing.T, base string, seeds []uint64) []string {
	t.Helper()
	var ids []string
	for _, seed := range seeds {
		resp, snap := postJob(t, base, stormSpec(seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("storm submit: %s", resp.Status)
		}
		ids = append(ids, snap.ID)
	}
	for _, id := range ids {
		if snap := waitTerminal(t, base, id); snap.Status != serve.StatusDone {
			t.Fatalf("storm job %s: %s, want done", id, snap.Status)
		}
	}
	return ids
}

// stormSeconds is the chaos budget: ~2 s, or BHPOD_CHAOS_SECONDS (`make
// check` runs the race suite at 30).
func stormSeconds() float64 {
	if v, err := strconv.ParseFloat(os.Getenv("BHPOD_CHAOS_SECONDS"), 64); err == nil && v > 0 {
		return v
	}
	return 2
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

// mustGet GETs url and decodes its 200 answer.
func mustGet[T any](t *testing.T, url string) T {
	t.Helper()
	v, err := getJSON[T](context.Background(), http.DefaultClient, url)
	if err != nil {
		t.Fatal(err)
	}
	return v
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

// waitFor polls cond until it holds, failing with what after 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if !time.Now().Before(deadline) {
			t.Fatal(what)
		}
	}
}

// corruptReplica overwrites one manifested file in a replica with
// garbage, returning its path and original bytes so the bitrot can be
// undone.
func corruptReplica(t *testing.T, dir string) (path string, orig []byte) {
	t.Helper()
	manifest, err := shipper.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name := range manifest {
		p := filepath.Join(dir, filepath.FromSlash(name))
		b, err := os.ReadFile(p)
		if err != nil {
			continue // superseded entry; try another
		}
		if err := os.WriteFile(p, []byte("bitrot"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p, b
	}
	t.Fatalf("replica %s has no manifested file to corrupt", dir)
	panic("unreachable")
}

func clusterMetrics(t *testing.T, base string) ClusterMetrics {
	t.Helper()
	return mustGet[ClusterMetrics](t, base+"/metrics")
}

// killedCluster is the kill -9 scenario up to the kill: three workers
// shipping synchronously into two sink roots behind a coordinator, a
// storm of finished jobs, and a watched job frozen mid-evaluation on the
// victim — the ring owner of its scope — with an SSE watcher attached
// through the coordinator when the victim died.
type killedCluster struct {
	cfg       Config // the coordinator's; a restart reuses it
	coord     *Coordinator
	front     *httptest.Server
	shipRoots []string
	victim    string

	acked     []string                  // every job the cluster acked, the watched one last
	preKill   map[string]serve.Snapshot // the victim's finished jobs as it served them
	watchedID string
	watcher   *sseClient
	lastSeq   uint64 // the watcher's last frame before the kill
}

// newKilledCluster runs the scenario up to and including the kill. With
// sinkRoots the coordinator knows where the replicas live, which arms its
// zero-operator pipeline; it keeps its membership journal either way.
func newKilledCluster(t *testing.T, sinkRoots bool) *killedCluster {
	k := &killedCluster{shipRoots: []string{t.TempDir(), t.TempDir()}}
	names := []string{"a", "b", "c"}
	// The coordinator routes on this same ring shape (same names, same
	// default replica count), so ownership is computable up front.
	ring := NewRing(0)
	for _, n := range names {
		ring.Add(n)
	}
	watched := stormSpec(1)
	k.victim = ring.Owner(watched.CacheScope())

	workers := map[string]*workerProc{}
	k.cfg.DataDir = t.TempDir()
	for _, n := range names {
		workers[n] = startWorkerProc(t, n, k.shipRoots...)
		k.cfg.Nodes = append(k.cfg.Nodes, Node{Name: n, URL: workers[n].ts.URL})
	}
	if sinkRoots {
		k.cfg.SinkRoots = k.shipRoots
	}
	k.start(t)
	t.Cleanup(func() {
		k.front.Close()
		k.coord.Shutdown()
	})

	// Storm: rounds of two jobs on the victim and two elsewhere, each run
	// to completion, until half the chaos budget is spent.
	stormDeadline := time.Now().Add(time.Duration(stormSeconds() * float64(time.Second) / 2))
	for round := 1; ; round++ {
		from := uint64(round * 1000)
		seeds := seedsOwnedBy(ring, k.victim, 2, from)
		for seed := from; len(seeds) < 4; seed++ {
			if ring.Owner(stormSpec(seed).CacheScope()) != k.victim {
				seeds = append(seeds, seed)
			}
		}
		k.acked = append(k.acked, runJobs(t, k.front.URL, seeds)...)
		if !time.Now().Before(stormDeadline) {
			break
		}
	}

	// Pre-kill ground truth: every terminal snapshot the victim served.
	k.preKill = map[string]serve.Snapshot{}
	for _, id := range k.acked {
		if strings.HasPrefix(id, k.victim+":") {
			snap, code := jobSnap(t, k.front.URL, id)
			if code != http.StatusOK {
				t.Fatalf("pre-kill snapshot %s: %d", id, code)
			}
			k.preKill[id] = snap
		}
	}
	if len(k.preKill) == 0 {
		t.Fatal("storm placed no jobs on the victim")
	}

	// Freeze the victim and land the watched job on it: it reaches
	// running, then wedges inside its first evaluation.
	victim := workers[k.victim]
	victim.armed.Store(true)
	resp, wsnap := postJob(t, k.front.URL, watched)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("watched submit: %s", resp.Status)
	}
	k.watchedID = wsnap.ID
	k.acked = append(k.acked, k.watchedID)
	if node, _, _ := splitID(k.watchedID); node != k.victim {
		t.Fatalf("watched job routed to %q, want victim %q", k.watchedID, k.victim)
	}
	waitFor(t, "watched job never reached running", func() bool {
		snap, code := jobSnap(t, k.front.URL, k.watchedID)
		return code == http.StatusOK && snap.Status == serve.StatusRunning
	})

	// The watcher follows the job through the coordinator. The frozen job
	// emits nothing further, so the stream goes quiet after the backlog.
	k.watcher = &sseClient{}
	streamErr := make(chan error, 1)
	go func() {
		_, err := k.watcher.stream(context.Background(), k.front.URL+"/jobs/"+k.watchedID+"/events", 0)
		streamErr <- err
	}()
	waitFor(t, "watcher saw no events before the kill", func() bool { return k.watcher.last() != 0 })

	victim.kill()
	<-streamErr // the watcher's connection died with the node
	k.lastSeq = k.watcher.last()
	return k
}

// start boots the coordinator on k.cfg, fronted by its own server.
func (k *killedCluster) start(t *testing.T) {
	t.Helper()
	c, err := New(k.cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.coord, k.front = c, httptest.NewServer(c)
}

// probeDead runs the prober rounds that walk the victim to dead.
func (k *killedCluster) probeDead() {
	for range deadAfter {
		k.coord.ProbeNow()
	}
}

// TestFailover is the cluster's kill -9 e2e: a worker dies mid-storm
// with a watched job in flight, and whichever way it heals, the cluster
// must afterwards serve every job it ever acked — the dead node's
// finished jobs byte-identical to what it served before the kill, the
// mid-run job cancelled/interrupted — and the watcher must resume through
// the coordinator at exactly last-seq+1. The rows differ only in the heal:
//   - manual: an operator restores the shipped replica onto a fresh
//     machine (bhpod -restore-from) and points the ring identity at it
//     (POST /cluster/replace);
//   - zero-operator: nobody at the keyboard. The coordinator verifies the
//     replicas — both bit-rotted at first — quarantines a standby whose
//     restore fails, promotes the next and re-points the ring, across a
//     restart of its own mid-incident that only its membership journal
//     survives.
//
// The storm runs ~2 s; BHPOD_CHAOS_SECONDS sets the budget.
func TestFailover(t *testing.T) {
	for _, row := range []struct {
		name      string
		sinkRoots bool
		heal      func(t *testing.T, k *killedCluster)
	}{
		{"manual", false, healByHand},
		{"zero-operator", true, healUnattended},
	} {
		t.Run(row.name, func(t *testing.T) {
			k := newKilledCluster(t, row.sinkRoots)
			row.heal(t, k)
			front := k.front.URL

			// The healed node primed its hub from the shipped trace, so the
			// first new frame is exactly lastSeq+1: the job's interruption.
			terminal, err := k.watcher.stream(context.Background(), front+"/jobs/"+k.watchedID+"/events", k.lastSeq)
			if err != nil || !terminal {
				t.Fatalf("resumed stream: terminal=%v err=%v", terminal, err)
			}
			seen := k.watcher.snapshot()
			for i := 1; i < len(seen); i++ {
				if seen[i].Seq != seen[i-1].Seq+1 {
					t.Fatalf("sequence gap across failover: %d then %d", seen[i-1].Seq, seen[i].Seq)
				}
			}
			final := seen[len(seen)-1]
			if final.Seq != k.lastSeq+1 || !final.Terminal {
				t.Fatalf("resume did not continue at %d: got seq %d terminal=%v", k.lastSeq+1, final.Seq, final.Terminal)
			}
			if final.Status != string(serve.StatusCancelled) || final.Reason != string(serve.ReasonInterrupted) {
				t.Fatalf("watched job ended %s/%s, want cancelled/interrupted", final.Status, final.Reason)
			}
			if snap, _ := jobSnap(t, front, k.watchedID); snap.Status != serve.StatusCancelled || snap.Reason != serve.ReasonInterrupted {
				t.Fatalf("watched job snapshot %s/%s, want cancelled/interrupted", snap.Status, snap.Reason)
			}

			// Zero job loss: every ID the cluster ever acked resolves again.
			have := map[string]bool{}
			for _, snap := range mustGet[[]serve.Snapshot](t, front+"/jobs") {
				have[snap.ID] = true
			}
			for _, id := range k.acked {
				if !have[id] {
					t.Fatalf("job %s lost across failover", id)
				}
			}

			// Byte-identical pre-crash state: the healed node serves the
			// dead node's finished jobs exactly as the dead node did.
			for id, pre := range k.preKill {
				post, code := jobSnap(t, front, id)
				if code != http.StatusOK {
					t.Fatalf("post-failover snapshot %s: %d", id, code)
				}
				preJSON, _ := json.Marshal([]any{pre.Curve, pre.Status, pre.BestScore, pre.TestScore, pre.Evaluations, pre.BestConfig})
				postJSON, _ := json.Marshal([]any{post.Curve, post.Status, post.BestScore, post.TestScore, post.Evaluations, post.BestConfig})
				if !bytes.Equal(preJSON, postJSON) {
					t.Fatalf("job %s changed across failover:\npre:  %s\npost: %s", id, preJSON, postJSON)
				}
			}

			// Whole again, and the failover shows in the metrics.
			if h := mustGet[clusterHealth](t, front+"/healthz"); h.Status != "ok" || h.NodesAlive != 3 {
				t.Fatalf("cluster health %s alive=%d after failover, want ok alive=3", h.Status, h.NodesAlive)
			}
			if cm := clusterMetrics(t, front); cm.JobsFailedOver == 0 || cm.SegmentsShipped == 0 || cm.ShipBytes == 0 {
				t.Fatalf("failover or ship metrics empty: %+v", cm)
			}
		})
	}
}

// healByHand is the manual heal. Until it, the cluster stays servable —
// degraded, not dead — and the victim's jobs answer a retryable 503.
func healByHand(t *testing.T, k *killedCluster) {
	k.probeDead()
	if st := k.coord.prober.stateOf(k.victim); st != StateDead {
		t.Fatalf("victim state %q after kill, want dead", st)
	}
	if h := mustGet[clusterHealth](t, k.front.URL+"/healthz"); h.Status != "degraded" || h.NodesAlive != 2 {
		t.Fatalf("cluster health %s alive=%d after kill, want degraded alive=2", h.Status, h.NodesAlive)
	}
	if _, code := jobSnap(t, k.front.URL, k.watchedID); code != http.StatusServiceUnavailable {
		t.Fatalf("dead node's job answered %d, want 503", code)
	}
	// A fresh machine: bhpod -restore-from into an empty, pre-created
	// data dir, under the dead node's name.
	rts := startNodeProc(t, serve.NodeOptions{
		Config:      serve.Config{DataDir: t.TempDir(), NodeName: k.victim},
		RestoreFrom: []string{filepath.Join(k.shipRoots[0], k.victim)},
	}).ts
	resp := postMember(t, k.front.URL, "replace", map[string]any{"node": k.victim, "url": rts.URL})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace: %s", resp.Status)
	}
}

// healUnattended is the zero-operator heal. The standby pool is
// registered at runtime (journaled): s0 refuses every restore — the
// fleet's broken spare — and sorts first by name, so the pipeline must
// quarantine it and move on to s1. Both replicas are bit-rotted, so the
// incident stays open across a coordinator restart; replica B heals
// while the coordinator is down.
func healUnattended(t *testing.T, k *killedCluster) {
	badMux := http.NewServeMux()
	badMux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(map[string]string{"status": "standby"})
	})
	badMux.HandleFunc("POST /restore", func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, `{"error":"disk on fire"}`, http.StatusInternalServerError)
	})
	badStandby := httptest.NewServer(badMux)
	t.Cleanup(badStandby.Close)
	for name, url := range map[string]string{"s0": badStandby.URL, "s1": startStandbyProc(t).ts.URL} {
		resp := postMember(t, k.front.URL, "standby", map[string]any{"node": name, "url": url})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("standby %s: %s", name, resp.Status)
		}
	}
	corruptReplica(t, filepath.Join(k.shipRoots[0], k.victim))
	corruptedB, origB := corruptReplica(t, filepath.Join(k.shipRoots[1], k.victim))

	// The dead verdict starts the pipeline with no operator involved; with
	// no replica that verifies, it cannot finish.
	k.probeDead()
	waitFor(t, "the failover pipeline never started", func() bool {
		return k.coord.prober.stateOf(k.victim) == StateRestoring
	})
	if _, code := jobSnap(t, k.front.URL, k.watchedID); code != http.StatusServiceUnavailable {
		t.Fatalf("dead node's job answered %d, want 503 while restoring", code)
	}

	// The coordinator crashes mid-incident; the member set and the standby
	// pool live only in its journal now. The restarted one must rebuild
	// both, re-detect the dead node and finish the restore by itself.
	k.front.Close()
	k.coord.Shutdown()
	if err := os.WriteFile(corruptedB, origB, 0o644); err != nil {
		t.Fatal(err)
	}
	k.start(t)
	members, standbys := 0, 0
	for _, n := range clusterNodes(t, k.front.URL) {
		if n.State == StateStandby {
			standbys++
		} else {
			members++
		}
	}
	if members != 3 || standbys != 2 {
		t.Fatalf("restarted coordinator recovered %d members / %d standbys, want 3/2", members, standbys)
	}
	k.probeDead()
	var cm ClusterMetrics
	waitFor(t, "the automatic restore never completed", func() bool {
		cm = clusterMetrics(t, k.front.URL)
		return cm.AutoRestores >= 1
	})
	if cm.AutoRestores != 1 || cm.RestoresFailed != 1 || cm.RestoreDurationSeconds <= 0 {
		t.Fatalf("auto_restores %d, restores_failed %d (the broken spare), restore_duration_seconds %v; want 1, 1, > 0",
			cm.AutoRestores, cm.RestoresFailed, cm.RestoreDurationSeconds)
	}

	// The incident log tells the whole story: dead, the quarantined spare's
	// failed restore, then the failover.
	byType := map[string]ClusterEvent{}
	evs := mustGet[[]ClusterEvent](t, k.front.URL+"/cluster/events")
	for _, ev := range evs {
		byType[ev.Type] = ev
	}
	if ev := byType["node-dead"]; ev.Node != k.victim {
		t.Fatalf("no node-dead event for %s in %+v", k.victim, evs)
	}
	if ev := byType["restore_failed"]; ev.Standby != "s0" {
		t.Fatalf("no restore_failed event for s0 in %+v", evs)
	}
	if ev := byType["failover"]; ev.Node != k.victim || ev.Standby != "s1" || ev.DurationSec <= 0 {
		t.Fatalf("no complete failover event in %+v", evs)
	}

	// The quarantine outlived the incident durably, and the pool shows it:
	// the promoted spare consumed, the broken one parked.
	ops, err := replayMemberLog(k.cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	quarantined := false
	for _, op := range ops {
		quarantined = quarantined || op.Op == OpQuarantine && op.Node == "s0" && op.On
	}
	if !quarantined {
		t.Fatal("s0's quarantine was not journaled")
	}
	for _, n := range clusterNodes(t, k.front.URL) {
		if n.Name == "s1" && n.State == StateStandby {
			t.Fatal("promoted standby still listed as a spare")
		}
		if n.Name == "s0" && !n.Quarantined {
			t.Fatal("broken spare not marked quarantined")
		}
	}
}

// TestShutdownJoinsFailover: Shutdown must stop what it started. A
// failover pipeline is caught mid-promotion — its POST /restore blocked
// inside the standby — when the coordinator shuts down; Shutdown has to
// cancel that request and wait for the pipeline to exit before it closes
// the membership journal. Afterwards the standby is released: a pipeline
// still alive would carry on (adopt the standby's jobs, probe, retry) —
// none may, so no further request reaches a node and no membership
// operation is journaled.
func TestShutdownJoinsFailover(t *testing.T) {
	// A replica of the dead node that verifies: one sealed segment.
	sinkRoot, src := t.TempDir(), t.TempDir()
	if err := os.MkdirAll(filepath.Join(src, "traces"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "traces", "trace-000001.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sink, err := shipper.NewDirSink(filepath.Join(sinkRoot, "a"))
	if err != nil {
		t.Fatal(err)
	}
	ship := shipper.NewMulti(src, []shipper.Sink{sink}, shipper.Options{Sync: true})
	ship.Sealed("traces/trace-000001.jsonl")
	if err := ship.Close(); err != nil {
		t.Fatal(err)
	}

	var requests atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	standbyMux := http.NewServeMux()
	standbyMux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(map[string]string{"status": "standby"})
	})
	standbyMux.HandleFunc("POST /restore", func(rw http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		json.NewEncoder(rw).Encode(map[string]string{"node": "a"})
	})
	standby := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		standbyMux.ServeHTTP(rw, r)
	}))
	t.Cleanup(standby.Close)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	dataDir := t.TempDir()
	c, err := New(Config{
		Nodes:     []Node{{Name: "a", URL: dead.URL}},
		Standbys:  []Node{{Name: "s1", URL: standby.URL}},
		DataDir:   dataDir,
		SinkRoots: []string{sinkRoot},
	})
	if err != nil {
		t.Fatal(err)
	}
	for range deadAfter { // a dies: the pipeline starts
		c.ProbeNow()
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the failover pipeline never asked the standby to restore")
	}

	done := make(chan struct{})
	go func() {
		c.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown is stuck behind the blocked restore instead of cancelling it")
	}
	c.failMu.Lock()
	running := len(c.restoring)
	c.failMu.Unlock()
	if running != 0 {
		t.Fatalf("Shutdown returned with %d failover pipeline(s) still running", running)
	}

	opsAtShutdown, err := replayMemberLog(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range opsAtShutdown {
		if op.Op == OpQuarantine {
			t.Fatalf("the standby was quarantined for a restore Shutdown itself cancelled: %+v", op)
		}
	}
	requestsAtShutdown := requests.Load()
	close(release)
	// A pipeline that survived would show itself at once: its in-flight
	// restore returns and it re-points, which asks the standby again.
	time.Sleep(100 * time.Millisecond)
	if n := requests.Load(); n != requestsAtShutdown {
		t.Fatalf("%d request(s) reached the standby after Shutdown returned", n-requestsAtShutdown)
	}
	ops, err := replayMemberLog(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != len(opsAtShutdown) {
		t.Fatalf("membership operations journaled after Shutdown: %+v", ops[len(opsAtShutdown):])
	}
}

// TestRestoreLostAckAdopted: POST /restore is idempotent, so a promotion
// whose ack was lost — the coordinator died between the standby's 200 and
// its own re-point — is adopted, not punished. The standby is promoted
// once by hand (the ack nobody saw); the same request replayed answers 200
// with the same body, another node's name 409; and a coordinator that then
// finds the node dead finishes the promotion through its own pipeline with
// no failed restore and no quarantine. (Before, the replay fell through to
// the promoted server's 404 and a healthy standby was quarantined.)
func TestRestoreLostAckAdopted(t *testing.T) {
	sinkRoot := t.TempDir()
	worker := startWorkerProc(t, "a", sinkRoot)
	job, err := http.Post(worker.ts.URL+"/jobs", "application/json", strings.NewReader(
		`{"dataset":"australian","scale":0.06,"method":"sha","hps":2,"max_configs":6,"iters":2,"seed":3}`))
	if err != nil || job.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %v %v", job, err)
	}
	job.Body.Close()
	waitTerminal(t, worker.ts.URL, "job-1")
	// The result record is in the log before the terminal event; sync
	// shipping puts it at the sink as it is appended.
	part := filepath.Join(sinkRoot, "a", "traces", "trace-000001.jsonl.part")
	waitFor(t, "job-1's result record never reached the sink", func() bool {
		data, _ := os.ReadFile(part)
		return bytes.Contains(data, []byte(`"t":"result"`))
	})
	worker.kill() // every append is already at the sink (sync shipping)

	standby := startStandbyProc(t)
	restore := func(node string) (int, string) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"node": node, "sources": []string{filepath.Join(sinkRoot, "a")}})
		resp, err := http.Post(standby.ts.URL+"/restore", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	code, first := restore("a")
	if code != http.StatusOK {
		t.Fatalf("promotion: %d %s", code, first)
	}
	if code, again := restore("a"); code != http.StatusOK || again != first {
		t.Fatalf("replayed restore: %d %s, want 200 and the first answer %s", code, again, first)
	}
	if code, body := restore("b"); code != http.StatusConflict {
		t.Fatalf("restore as another node: %d %s, want 409", code, body)
	}

	dataDir := t.TempDir()
	c, err := New(Config{
		Nodes:     []Node{{Name: "a", URL: worker.ts.URL}},
		Standbys:  []Node{{Name: "s1", URL: standby.ts.URL}},
		DataDir:   dataDir,
		SinkRoots: []string{sinkRoot},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	front := httptest.NewServer(c)
	defer front.Close()
	for range deadAfter {
		c.ProbeNow()
	}
	var cm ClusterMetrics
	waitFor(t, "the pipeline never adopted the promoted standby", func() bool {
		cm = clusterMetrics(t, front.URL)
		return cm.AutoRestores == 1
	})
	if cm.RestoresFailed != 0 {
		t.Fatalf("restores_failed = %d, want 0: the replayed restore was counted as a failure", cm.RestoresFailed)
	}
	ops, err := replayMemberLog(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Op == OpQuarantine {
			t.Fatalf("a healthy, already promoted standby was quarantined: %+v", op)
		}
	}
	if st := c.prober.stateOf("a"); st != StateAlive {
		t.Fatalf("node a is %q after the adopted promotion, want alive", st)
	}
	if snap := waitTerminal(t, front.URL, "a:job-1"); snap.Status != serve.StatusDone || len(snap.Curve) == 0 {
		t.Fatalf("the dead node's job through the coordinator: %s with %d curve points", snap.Status, len(snap.Curve))
	}
}
