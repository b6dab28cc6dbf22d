package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/serve"
	"enhancedbhpo/internal/serve/shipper"
)

// startStandbyProc starts one in-process spare, bhpod -standby: blank
// until the coordinator promotes it, then the dead node restored from its
// replica.
func startStandbyProc(t *testing.T) *workerProc {
	t.Helper()
	return startNodeProc(t, serve.NodeOptions{Config: serve.Config{DataDir: t.TempDir()}, Standby: true})
}

// corruptReplica overwrites one manifested file in a replica with
// garbage, saving the original bytes so the bitrot can be undone.
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
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cm ClusterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&cm); err != nil {
		t.Fatal(err)
	}
	return cm
}

// TestFailoverZeroOperator is TestFailoverNodeKill with nobody at the
// keyboard: the same kill -9 mid-storm, but no manual /cluster/replace —
// the coordinator itself must verify the dead node's shipped replicas
// (two sink roots, one silently bit-rotted), quarantine a standby whose
// restore fails, promote the next, and re-point the ring. Mid-incident
// the coordinator is restarted; its membership journal must bring back
// the registered standby pool so the new process finishes the restore on
// its own. Afterward: zero acked jobs lost, byte-identical pre-crash
// curves, and the SSE watcher resuming at exactly last-seq+1.
//
// Runs a ~2s storm by default; `make failover` sets BHPOD_AUTO_FAILOVER=1
// with BHPOD_CHAOS_SECONDS=30 for the full chaos budget.
func TestFailoverZeroOperator(t *testing.T) {
	secs := 2.0
	if os.Getenv("BHPOD_AUTO_FAILOVER") == "1" {
		if v, err := strconv.ParseFloat(os.Getenv("BHPOD_CHAOS_SECONDS"), 64); err == nil && v > 0 {
			secs = v
		}
	}
	stormDeadline := time.Now().Add(time.Duration(secs * float64(time.Second) / 2))

	shipRootA, shipRootB := t.TempDir(), t.TempDir()
	names := []string{"a", "b", "c"}
	spec := func(seed uint64) serve.JobSpec {
		return serve.JobSpec{
			Dataset: "australian", Scale: 0.06, DatasetSeed: seed,
			Method: "sha", NumHPs: 2, MaxConfigs: 6, Iters: 2, Seed: 3,
		}
	}
	ring := NewRing(0)
	for _, n := range names {
		ring.Add(n)
	}
	watched := spec(1)
	victimName := ring.Owner(watched.CacheScope())

	workers := map[string]*workerProc{}
	nodes := make([]Node, 0, len(names))
	for _, n := range names {
		wp := startWorkerProcMulti(t, []string{shipRootA, shipRootB}, n)
		workers[n] = wp
		nodes = append(nodes, Node{Name: n, URL: wp.ts.URL})
	}

	dataDir := t.TempDir()
	cfg := Config{
		Nodes:        nodes,
		DataDir:      dataDir,
		SinkRoots:    []string{shipRootA, shipRootB},
		AutoFailover: true,
	}
	coord1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front1 := httptest.NewServer(coord1)

	// The standby pool, registered at runtime (journaled): badStandby
	// refuses every restore — the fleet's broken spare — and sorts first
	// by name, so the pipeline must quarantine it and move on.
	badMux := http.NewServeMux()
	badMux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(map[string]string{"status": "standby"})
	})
	badMux.HandleFunc("POST /restore", func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, `{"error":"disk on fire"}`, http.StatusInternalServerError)
	})
	badStandby := httptest.NewServer(badMux)
	t.Cleanup(badStandby.Close)
	goodStandby := startStandbyProc(t)
	for name, url := range map[string]string{"s0": badStandby.URL, "s1": goodStandby.ts.URL} {
		body, _ := json.Marshal(map[string]string{"node": name, "url": url})
		resp, err := http.Post(front1.URL+"/cluster/standby", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("standby %s: %s", name, resp.Status)
		}
	}

	// Storm through the coordinator until half the chaos budget is spent.
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
			resp, snap := postJob(t, front1.URL, spec(seed))
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("storm submit: %s", resp.Status)
			}
			ids = append(ids, snap.ID)
		}
		for _, id := range ids {
			if snap := waitTerminal(t, front1.URL, id); snap.Status != serve.StatusDone {
				t.Fatalf("storm job %s: %s, want done", id, snap.Status)
			}
		}
		acked = append(acked, ids...)
		if !time.Now().Before(stormDeadline) {
			break
		}
	}

	// Pre-kill ground truth for every terminal job the victim served.
	preKill := map[string]serve.Snapshot{}
	for _, id := range acked {
		if strings.HasPrefix(id, victimName+":") {
			snap, code := jobSnap(t, front1.URL, id)
			if code != http.StatusOK {
				t.Fatalf("pre-kill snapshot %s: %d", id, code)
			}
			preKill[id] = snap
		}
	}
	if len(preKill) == 0 {
		t.Fatal("storm placed no jobs on the victim")
	}

	// Land the watched job on the victim, frozen mid-evaluation, with an
	// SSE watcher attached through the coordinator.
	victim := workers[victimName]
	victim.armed.Store(true)
	resp, wsnap := postJob(t, front1.URL, watched)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("watched submit: %s", resp.Status)
	}
	watchedID := wsnap.ID
	for deadline := time.Now().Add(30 * time.Second); ; {
		snap, code := jobSnap(t, front1.URL, watchedID)
		if code == http.StatusOK && snap.Status == serve.StatusRunning {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("watched job never reached running (last %s)", snap.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	watcher := &sseClient{}
	streamErr := make(chan error, 1)
	go func() {
		_, err := watcher.stream(context.Background(), front1.URL+"/jobs/"+watchedID+"/events", 0)
		streamErr <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); watcher.last() == 0; {
		if !time.Now().Before(deadline) {
			t.Fatal("watcher saw no events before the kill")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Bitrot both replicas — A permanently, B reversibly — then kill -9.
	// With every replica failing verification the pipeline cannot finish,
	// pinning the incident open across the coordinator restart below.
	corruptReplica(t, filepath.Join(shipRootA, victimName))
	corruptedB, origB := corruptReplica(t, filepath.Join(shipRootB, victimName))
	victim.ts.CloseClientConnections()
	victim.ts.Close()
	<-streamErr
	preKillLast := watcher.last()
	if preKillLast == 0 {
		t.Fatal("watcher lost its events")
	}

	// The prober walks the victim to dead; the dead transition starts the
	// pipeline with no operator involved.
	for range deadAfter {
		coord1.ProbeNow()
	}
	for deadline := time.Now().Add(10 * time.Second); coord1.prober.stateOf(victimName) != StateRestoring; {
		if !time.Now().Before(deadline) {
			t.Fatalf("victim state %q, want restoring (pipeline never started)", coord1.prober.stateOf(victimName))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, code := jobSnap(t, front1.URL, watchedID); code != http.StatusServiceUnavailable {
		t.Fatalf("dead node's job answered %d, want 503 while restoring", code)
	}

	// Coordinator crash mid-incident. The restore has not happened (no
	// replica verifies); the member set and standby pool live only in the
	// journal now.
	front1.Close()
	coord1.Shutdown()

	// Heal replica B and restart. The new coordinator must rebuild the
	// ring and the standby pool from members.jsonl, re-detect the dead
	// node, and finish the restore by itself: quarantine s0 (its restore
	// fails), promote s1 from the one clean replica.
	if err := os.WriteFile(corruptedB, origB, 0o644); err != nil {
		t.Fatal(err)
	}
	coord2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Shutdown()
	front2 := httptest.NewServer(coord2)
	defer front2.Close()
	statuses := clusterNodes(t, front2.URL)
	members, standbys := 0, 0
	for _, n := range statuses {
		if n.State == StateStandby {
			standbys++
		} else {
			members++
		}
	}
	if members != 3 || standbys != 2 {
		t.Fatalf("restarted coordinator recovered %d members / %d standbys, want 3/2", members, standbys)
	}
	for range deadAfter {
		coord2.ProbeNow()
	}
	var cm ClusterMetrics
	for deadline := time.Now().Add(30 * time.Second); ; {
		cm = clusterMetrics(t, front2.URL)
		if cm.AutoRestores >= 1 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("automatic restore never completed: %+v", cm)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cm.AutoRestores != 1 {
		t.Fatalf("auto_restores = %d, want 1", cm.AutoRestores)
	}
	if cm.RestoresFailed != 1 {
		t.Fatalf("restores_failed = %d, want 1 (the broken spare)", cm.RestoresFailed)
	}
	if cm.RestoreDurationSeconds <= 0 {
		t.Fatalf("restore_duration_seconds = %v, want > 0", cm.RestoreDurationSeconds)
	}
	if st := coord2.prober.stateOf(victimName); st != StateAlive {
		t.Fatalf("victim state %q after automatic failover, want alive", st)
	}

	// The incident log tells the whole story: dead, failed restore with
	// the quarantined spare, then the failover.
	eresp, err := http.Get(front2.URL + "/cluster/events")
	if err != nil {
		t.Fatal(err)
	}
	var events []ClusterEvent
	if err := json.NewDecoder(eresp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	eresp.Body.Close()
	byType := map[string]ClusterEvent{}
	for _, ev := range events {
		byType[ev.Type] = ev
	}
	if ev, ok := byType["node-dead"]; !ok || ev.Node != victimName {
		t.Fatalf("no node-dead event for %s in %+v", victimName, events)
	}
	if ev, ok := byType["restore_failed"]; !ok || ev.Standby != "s0" {
		t.Fatalf("no restore_failed event for s0 in %+v", events)
	}
	if ev, ok := byType["failover"]; !ok || ev.Node != victimName || ev.Standby != "s1" || ev.DurationSec <= 0 {
		t.Fatalf("no complete failover event in %+v", events)
	}

	// The quarantine outlived the incident durably.
	ops, err := replayMemberLog(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	quarantined := false
	for _, op := range ops {
		if op.Op == OpQuarantine && op.Node == "s0" && op.On {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatal("s0's quarantine was not journaled")
	}

	// Zero job loss: every ID the cluster ever acked resolves again.
	lresp, err := http.Get(front2.URL + "/jobs")
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
			t.Fatalf("job %s lost across automatic failover", id)
		}
	}

	// Byte-identical pre-crash state on the promoted standby.
	for id, pre := range preKill {
		post, code := jobSnap(t, front2.URL, id)
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

	// SSE resume through the new coordinator: first new frame is exactly
	// preKillLast+1, terminal, cancelled/interrupted.
	terminal, err := watcher.stream(context.Background(), front2.URL+"/jobs/"+watchedID+"/events", preKillLast)
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

	// Whole again: three live members, the promoted spare consumed, the
	// broken spare still parked in quarantine.
	var health clusterHealth
	hresp, err := http.Get(front2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "ok" || health.NodesAlive != 3 {
		t.Fatalf("cluster health %s alive=%d after failover, want ok alive=3", health.Status, health.NodesAlive)
	}
	left := clusterNodes(t, front2.URL)
	for _, n := range left {
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
	if err := os.WriteFile(filepath.Join(src, "journal-000001.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sink, err := shipper.NewDirSink(filepath.Join(sinkRoot, "a"))
	if err != nil {
		t.Fatal(err)
	}
	ship := shipper.NewMulti(src, []shipper.Sink{sink}, shipper.Options{Sync: true})
	ship.Sealed("journal-000001.jsonl")
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
		Nodes:        []Node{{Name: "a", URL: dead.URL}},
		Standbys:     []Node{{Name: "s1", URL: standby.URL}},
		DataDir:      dataDir,
		SinkRoots:    []string{sinkRoot},
		AutoFailover: true,
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
	worker := startWorkerProc(t, sinkRoot, "a")
	job, err := http.Post(worker.ts.URL+"/jobs", "application/json", strings.NewReader(
		`{"dataset":"australian","scale":0.06,"method":"sha","hps":2,"max_configs":6,"iters":2,"seed":3}`))
	if err != nil || job.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %v %v", job, err)
	}
	job.Body.Close()
	waitTerminal(t, worker.ts.URL, "job-1")
	// The result record follows the terminal status a snapshot shows; sync
	// shipping puts it at the sink as it is appended.
	part := filepath.Join(sinkRoot, "a", "journal-000001.jsonl.part")
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if data, _ := os.ReadFile(part); bytes.Contains(data, []byte(`"t":"result"`)) {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("job-1's result record never reached the sink")
		}
	}
	worker.ts.CloseClientConnections()
	worker.ts.Close() // kill -9: every append is already at the sink (sync shipping)

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
		Nodes:        []Node{{Name: "a", URL: worker.ts.URL}},
		Standbys:     []Node{{Name: "s1", URL: standby.ts.URL}},
		DataDir:      dataDir,
		SinkRoots:    []string{sinkRoot},
		AutoFailover: true,
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
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if cm = clusterMetrics(t, front.URL); cm.AutoRestores == 1 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("the pipeline never adopted the promoted standby: %+v", cm)
		}
	}
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
