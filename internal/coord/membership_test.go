package coord

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"enhancedbhpo/internal/serve"
)

// TestMemberJournalRoundTrip: operations append durably and replay in
// order; a missing journal is an empty history; a torn final line
// (crash mid-append) ends the replay at the last whole record.
func TestMemberJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if ops, err := replayMemberLog(dir); err != nil || ops != nil {
		t.Fatalf("replay of missing journal = %v, %v; want empty", ops, err)
	}
	l, err := openMemberLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []MemberOp{
		{Op: OpJoin, Node: "c", URL: "http://c"},
		{Op: OpDrain, Node: "c", On: true},
		{Op: OpLeave, Node: "c"},
		{Op: OpStandby, Node: "s1", URL: "http://s1", On: true},
		{Op: OpQuarantine, Node: "s1", On: true},
	}
	for _, op := range want {
		if err := l.append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	got, err := replayMemberLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		g := got[i]
		if g.Op != want[i].Op || g.Node != want[i].Node || g.URL != want[i].URL || g.On != want[i].On {
			t.Fatalf("op %d = %+v, want %+v", i, g, want[i])
		}
		if g.Time.IsZero() {
			t.Fatalf("op %d has no timestamp", i)
		}
	}

	// Torn tail: everything before the half-written line still replays.
	path := filepath.Join(dir, MembersFileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"join","node":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err = replayMemberLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("torn-tail replay returned %d ops, want %d", len(got), len(want))
	}

	// A nil log (persistence disabled) swallows appends.
	var nilLog *memberLog
	if err := nilLog.append(MemberOp{Op: OpJoin, Node: "x"}); err != nil {
		t.Fatalf("nil log append: %v", err)
	}
}

// appendOps opens dir's membership journal, appends ops and closes it:
// one coordinator life.
func appendOps(t *testing.T, dir string, ops ...MemberOp) {
	t.Helper()
	l, err := openMemberLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := l.append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
}

// replayedNodes replays dir's membership journal into "op node" strings.
func replayedNodes(t *testing.T, dir string) string {
	t.Helper()
	ops, err := replayMemberLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, op := range ops {
		out = append(out, op.Op+" "+op.Node)
	}
	return strings.Join(out, ", ")
}

// TestMemberJournalTornTailRestart: a crash tears the journal's last line;
// the restarted coordinator's acknowledged op replays at the next restart
// instead of lying behind the tear.
func TestMemberJournalTornTailRestart(t *testing.T) {
	dir := t.TempDir()
	appendOps(t, dir, MemberOp{Op: OpJoin, Node: "a", URL: "http://a"})
	f, err := os.OpenFile(filepath.Join(dir, MembersFileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"join","node":"b","ur`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := replayedNodes(t, dir); got != "join a" {
		t.Fatalf("torn journal replays as %q, want the whole op before the tear", got)
	}
	appendOps(t, dir, MemberOp{Op: OpJoin, Node: "c", URL: "http://c"})
	if got := replayedNodes(t, dir); got != "join a, join c" {
		t.Fatalf("after a restart and a join the journal replays as %q, want join a, join c", got)
	}
}

// TestMemberJournalCorruptLineFails: a whole line that does not decode is
// corruption, not a torn tail. The replay — and a coordinator booting on
// the directory — fails naming the file and the line, instead of serving
// a ring without the ops behind it.
func TestMemberJournalCorruptLineFails(t *testing.T) {
	dir := t.TempDir()
	appendOps(t, dir, MemberOp{Op: OpJoin, Node: "a", URL: "http://a"})
	f, err := os.OpenFile(filepath.Join(dir, MembersFileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"join",oops}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	appendOps(t, dir, MemberOp{Op: OpJoin, Node: "c", URL: "http://c"})
	want := MembersFileName + " line 2"
	if ops, err := replayMemberLog(dir); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("replay = %d ops, %v; want an error naming %s", len(ops), err, want)
	}
	_, err = New(Config{Nodes: []Node{{Name: "b", URL: "http://b"}}, DataDir: dir})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("New on a corrupt membership journal = %v; want an error naming %s", err, want)
	}
}

// TestSubmitRetryOnDeadRoute is the satellite regression: a submission
// whose routed node accepts the connection and then dies before acking
// must be retried transparently on the ring successor — same
// idempotency token — and succeed, not surface a retryable 503/502. A
// batch goes through the same submit loop and gets the same treatment.
func TestSubmitRetryOnDeadRoute(t *testing.T) {
	healthy := newStubWorker(t, "b")

	// "a" is the killer: it records the submit token, then drops the
	// connection mid-response — the node died between routing and ack.
	var mu sync.Mutex
	var killerTokens []string
	die := func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		killerTokens = append(killerTokens, r.Header.Get("X-Submit-Token"))
		mu.Unlock()
		panic(http.ErrAbortHandler)
	}
	killerMux := http.NewServeMux()
	killerMux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(map[string]any{"status": "ok", "pending": 0})
	})
	killerMux.HandleFunc("POST /jobs", die)
	killerMux.HandleFunc("POST /jobs:batch", die)
	killer := httptest.NewServer(killerMux)
	t.Cleanup(killer.Close)

	coord, err := New(Config{
		Nodes: []Node{{Name: "a", URL: killer.URL}, {Name: "b", URL: healthy.ts.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)

	// A spec the ring routes to the killer.
	spec := serve.JobSpec{Dataset: "australian", Method: "sha"}
	for seed := uint64(1); ; seed++ {
		spec.Seed = seed
		if coord.ring.Owner(spec.CacheScope()) == "a" {
			break
		}
	}
	one, _ := json.Marshal(spec)

	for i, entry := range []struct{ path, payload string }{
		{"/jobs", string(one)},
		{"/jobs:batch", `{"jobs":[` + string(one) + `,` + string(one) + `]}`},
	} {
		resp, err := http.Post(ts.URL+entry.path, "application/json", strings.NewReader(entry.payload))
		if err != nil {
			t.Fatal(err)
		}
		ack, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s through dying node: %s, want 202 via the successor", entry.path, resp.Status)
		}
		if strings.Contains(string(ack), `"id": "job-`) || !strings.Contains(string(ack), `"id": "b:job-`) {
			t.Fatalf("POST %s: retried job IDs not all the successor's (b:...):\n%s", entry.path, ack)
		}
		mu.Lock()
		kt := append([]string(nil), killerTokens...)
		mu.Unlock()
		if len(kt) != i+1 || kt[i] == "" {
			t.Fatalf("POST %s: killer saw tokens %q, want %d non-empty", entry.path, kt, i+1)
		}
		healthy.mu.Lock()
		ht := append([]string(nil), healthy.tokens...)
		healthy.mu.Unlock()
		if len(ht) != i+1 || ht[i] != kt[i] {
			t.Fatalf("POST %s: successor saw tokens %q, want the same token %q — the retry must carry the idempotency key", entry.path, ht, kt[i])
		}
		if i > 0 && kt[i] == kt[i-1] {
			t.Fatalf("two submissions shared the token %q", kt[i])
		}
	}

	cm := clusterMetrics(t, ts.URL)
	if cm.SubmitRetries != 2 {
		t.Fatalf("submit_retries = %d, want 2", cm.SubmitRetries)
	}
	if cm.JobsRouted != 3 {
		t.Fatalf("jobs_routed = %d, want 3 (one single, a batch of two)", cm.JobsRouted)
	}
}

// postMember sends one membership operation to the coordinator.
func postMember(t *testing.T, base, cmd string, body map[string]any) *http.Response {
	t.Helper()
	payload, _ := json.Marshal(body)
	resp, err := http.Post(base+"/cluster/"+cmd, "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// clusterNodes fetches GET /cluster.
func clusterNodes(t *testing.T, base string) []NodeStatus {
	t.Helper()
	return mustGet[[]NodeStatus](t, base+"/cluster")
}

// TestMembershipJoinStormDrainLeave is the runtime-membership e2e over
// real workers: a node joins a live ring and immediately takes work, a
// drain stops new routing while the ring stays whole, a leave waits for
// the node to go idle and removes it with zero job loss, and a restarted
// coordinator rebuilds the post-churn member set from its journal.
func TestMembershipJoinStormDrainLeave(t *testing.T) {
	shipRoot := t.TempDir()
	workers := map[string]*workerProc{}
	for _, n := range []string{"a", "b", "c"} {
		workers[n] = startWorkerProc(t, n, shipRoot)
	}
	cfg := Config{
		Nodes: []Node{
			{Name: "a", URL: workers["a"].ts.URL},
			{Name: "b", URL: workers["b"].ts.URL},
		},
		DataDir: t.TempDir(),
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord)

	// Join c at runtime: the ring now has three members and c is alive.
	member := func(cmd string, body map[string]any, want int) {
		t.Helper()
		resp := postMember(t, front.URL, cmd, body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %v: %s, want %d", cmd, body, resp.Status, want)
		}
	}
	joinC := map[string]any{"node": "c", "url": workers["c"].ts.URL}
	member("join", joinC, http.StatusOK)
	if got := len(clusterNodes(t, front.URL)); got != 3 {
		t.Fatalf("%d nodes after join, want 3", got)
	}
	// Joining again with the same URL is idempotent; a different URL must
	// be refused (that is what /cluster/replace is for).
	member("join", joinC, http.StatusOK)
	member("join", map[string]any{"node": "c", "url": "http://elsewhere:1"}, http.StatusConflict)

	// Storm across the three-node ring; c must take real work.
	var seeds []uint64
	for _, owner := range []string{"a", "b", "c"} {
		seeds = append(seeds, seedsOwnedBy(coord.ring, owner, 2, 1)...)
	}
	onC := 0
	for _, id := range runJobs(t, front.URL, seeds) {
		if strings.HasPrefix(id, "c:") {
			onC++
		}
	}
	if onC == 0 {
		t.Fatal("no storm job landed on the joined node")
	}

	// Drain c: it stops taking new jobs — a scope it owns routes to a
	// successor — but stays a probed, queryable member.
	member("drain", map[string]any{"node": "c"}, http.StatusOK)
	if st := coord.prober.stateOf("c"); st != StateDraining {
		t.Fatalf("c state %q after drain, want draining", st)
	}
	drainSeed := seedsOwnedBy(coord.ring, "c", 1, 10_000)
	if id := runJobs(t, front.URL, drainSeed)[0]; strings.HasPrefix(id, "c:") {
		t.Fatalf("draining node still took job %s", id)
	}

	// Leave: waits for c to go idle (it is — every job finished), then
	// removes it from the ring.
	member("leave", map[string]any{"node": "c", "deadline_sec": 30.0}, http.StatusOK)
	if got := len(clusterNodes(t, front.URL)); got != 2 {
		t.Fatalf("%d nodes after leave, want 2", got)
	}
	if id := runJobs(t, front.URL, drainSeed)[0]; strings.HasPrefix(id, "c:") {
		t.Fatalf("submit after leave routed to %s", id)
	}

	// c rejoins, then the coordinator restarts: the journal — boot config
	// plus join/drain/leave/join — must rebuild the current member set,
	// with c back and not draining.
	member("join", joinC, http.StatusOK)
	front.Close()
	coord.Shutdown()

	coord2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Shutdown()
	front2 := httptest.NewServer(coord2)
	defer front2.Close()
	nodes := clusterNodes(t, front2.URL)
	if len(nodes) != 3 {
		t.Fatalf("%d nodes after restart, want 3 recovered from the journal", len(nodes))
	}
	for _, n := range nodes {
		if n.Name == "c" && n.State == StateDraining {
			t.Fatal("rejoined node came back draining")
		}
	}
	if id := runJobs(t, front2.URL, seedsOwnedBy(coord2.ring, "c", 1, 20_000))[0]; !strings.HasPrefix(id, "c:") {
		t.Fatalf("post-restart submit routed to %s, want the rejoined c", id)
	}
}
