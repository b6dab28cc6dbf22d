package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enhancedbhpo/internal/serve/shipper"
)

// httpDo returns the status and body of one request against a node.
func httpDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

// served is what a node says about the one job of this test: the job
// table, the job's snapshot (curve, scores, last_seq) and its durable
// trace, as raw response bodies.
type served struct{ table, job, trace string }

func observe(t *testing.T, url string) served {
	t.Helper()
	var out served
	for path, into := range map[string]*string{"/jobs": &out.table, "/jobs/job-1": &out.job, "/jobs/job-1/trace": &out.trace} {
		code, body := httpDo(t, http.MethodGet, url+path, "")
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, code, body)
		}
		*into = body
	}
	return out
}

// checkBeside asserts that the routes a node serves beside the job API
// answer: pprof and the /ship/ receiver.
func checkBeside(t *testing.T, url, when string) {
	t.Helper()
	if code, body := httpDo(t, http.MethodGet, url+"/debug/pprof/cmdline", ""); code != http.StatusOK {
		t.Fatalf("%s: pprof answered %d %s", when, code, body)
	}
	if code, body := httpDo(t, http.MethodGet, url+"/ship/peer/offset?name=journal-000001.jsonl", ""); code != http.StatusOK || !strings.Contains(body, `"offset"`) {
		t.Fatalf("%s: the /ship/ receiver answered %d %s", when, code, body)
	}
}

// TestNodeOneAssemblyThreeTriggers drives every way a process becomes a
// node through serve.StartNode — boot on an empty data directory, boot on
// a journaled one, boot blank and be promoted by POST /restore, boot from
// -restore-from with a corrupt first replica — and requires each to serve
// the same job table, snapshot (curve, scores, last_seq) and trace the
// first one served, pprof and /ship/ to answer before and after a
// promotion, a promoted standby to ship like any other node, the restore
// destination rule to hold, and Close to close the node's shipper.
func TestNodeOneAssemblyThreeTriggers(t *testing.T) {
	rootA, rootB, rootC := t.TempDir(), t.TempDir(), t.TempDir()
	liveDir := filepath.Join(t.TempDir(), "live") // absent: boot creates it
	replicaA, replicaB := filepath.Join(rootA, "a"), filepath.Join(rootB, "a")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	start := func(opts NodeOptions) (*Node, string) {
		t.Helper()
		opts.Config.PoolSize, opts.Config.MaxJobs = 2, 2
		opts.Pprof, opts.ShipRecvDir = true, filepath.Join(t.TempDir(), "recv")
		n, err := StartNode(opts)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(n)
		t.Cleanup(func() {
			ts.Close()
			n.Close(ctx)
		})
		return n, ts.URL
	}

	// Trigger 1a: boot active on an empty directory. This node runs the job
	// and is the reference every other way of becoming "a" must match.
	first, url := start(NodeOptions{
		Config: Config{DataDir: liveDir, NodeName: "a"},
		ShipTo: []string{rootA, rootB},
	})
	checkBeside(t, url, "booted active")
	if code, body := httpDo(t, http.MethodPost, url+"/jobs",
		`{"dataset":"australian","scale":0.06,"method":"sha","hps":2,"max_configs":6,"iters":2,"seed":3}`); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	waitJob(t, first.active.Load().server.manager, "job-1", func(s Status) bool { return s == StatusDone }, "done")
	want := observe(t, url)
	var snap Snapshot
	if err := json.Unmarshal([]byte(want.job), &snap); err != nil || len(snap.Curve) == 0 || snap.LastSeq == 0 {
		t.Fatalf("reference snapshot has %d curve points, last_seq %d (%v)", len(snap.Curve), snap.LastSeq, err)
	}
	// A node booted normally answers POST /restore like a promoted one:
	// 200 under its own name, 409 under another.
	if code, body := httpDo(t, http.MethodPost, url+"/restore", `{"node":"a","sources":["x"]}`); code != http.StatusOK {
		t.Fatalf("restore as itself on a booted node: %d %s", code, body)
	}
	if code, body := httpDo(t, http.MethodPost, url+"/restore", `{"node":"b","sources":["x"]}`); code != http.StatusConflict {
		t.Fatalf("restore as another node on a booted node: %d %s", code, body)
	}

	// Close closes the shipper too: the final state is at both sinks, and
	// nothing handed to the shipper afterwards goes anywhere.
	ship := first.active.Load().ship
	if err := first.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for _, replica := range []string{replicaA, replicaB} {
		if err := shipper.VerifyReplica(replica); err != nil {
			t.Fatalf("replica after Close: %v", err)
		}
	}
	if err := os.WriteFile(filepath.Join(liveDir, "late"), []byte("after close\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ship.Sealed("late")
	ship.Flush()
	if _, err := os.Stat(filepath.Join(replicaA, "late")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the node's shipper still ships after Close (%v)", err)
	}
	os.Remove(filepath.Join(liveDir, "late"))

	// The destination rule: a directory that holds a journal is never
	// restored over, with one replica named or with several.
	for _, replicas := range [][]string{{replicaA}, {replicaA, replicaB}} {
		if _, err := StartNode(NodeOptions{Config: Config{DataDir: liveDir, NodeName: "a"}, RestoreFrom: replicas}); err == nil {
			t.Fatalf("restoring %d replica(s) over a live journal was accepted", len(replicas))
		}
	}

	// Trigger 1b: boot on the journaled directory — a restart.
	_, url = start(NodeOptions{Config: Config{DataDir: liveDir, NodeName: "a"}})
	if got := observe(t, url); got != want {
		t.Fatalf("restarted node serves\n%+v\nwant\n%+v", got, want)
	}

	// Trigger 2: boot blank, be promoted. pprof and /ship/ answer before
	// and after; the promoted node ships to rootC like any node with ShipTo.
	standby, url := start(NodeOptions{
		Config:  Config{DataDir: t.TempDir()},
		Standby: true,
		ShipTo:  []string{rootC},
		Ship:    shipper.Options{Sync: true},
	})
	checkBeside(t, url, "blank standby")
	if code, body := httpDo(t, http.MethodGet, url+"/healthz", ""); code != http.StatusOK || !strings.Contains(body, `"standby"`) {
		t.Fatalf("blank standby healthz: %d %s", code, body)
	}
	if code, _ := httpDo(t, http.MethodGet, url+"/jobs", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("blank standby served /jobs with %d, want 503", code)
	}
	restoreBody, _ := json.Marshal(restoreRequest{Node: "a", Sources: []string{replicaA}})
	code, promoted := httpDo(t, http.MethodPost, url+"/restore", string(restoreBody))
	if code != http.StatusOK || !strings.Contains(promoted, replicaA) {
		t.Fatalf("promotion: %d %s", code, promoted)
	}
	checkBeside(t, url, "promoted standby")
	if code, body := httpDo(t, http.MethodGet, url+"/healthz", ""); !strings.Contains(body, `"ok"`) || !strings.Contains(body, `"node": "a"`) {
		t.Fatalf("promoted standby healthz: %d %s", code, body)
	}
	if got := observe(t, url); got != want {
		t.Fatalf("promoted standby serves\n%+v\nwant\n%+v", got, want)
	}
	if err := standby.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := shipper.VerifyReplica(filepath.Join(rootC, "a")); err != nil {
		t.Fatalf("the promoted standby did not ship its restored journal on: %v", err)
	}

	// Trigger 3: boot from replicas, the first of them bit-rotted — into an
	// empty directory that already exists. The corrupt file is quarantined,
	// the second replica used.
	manifest, err := shipper.ReadManifest(replicaB)
	if err != nil || len(manifest) == 0 {
		t.Fatalf("replica B manifest: %d entries, %v", len(manifest), err)
	}
	var rotted string
	for name := range manifest {
		if _, err := os.Stat(filepath.Join(replicaB, name)); err == nil {
			rotted = filepath.Join(replicaB, name)
			break
		}
	}
	if err := os.WriteFile(rotted, []byte("bitrot"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, url = start(NodeOptions{
		Config:      Config{DataDir: t.TempDir(), NodeName: "a"},
		RestoreFrom: []string{replicaB, replicaA},
	})
	if got := observe(t, url); got != want {
		t.Fatalf("node restored at boot serves\n%+v\nwant\n%+v", got, want)
	}
	if code, body := httpDo(t, http.MethodPost, url+"/restore", string(restoreBody)); code != http.StatusOK || !strings.Contains(body, replicaA) {
		t.Fatalf("restore replayed on a node restored at boot: %d %s, want 200 naming %s", code, body, replicaA)
	}
	if _, err := os.Stat(rotted + ".quarantine"); err != nil {
		t.Fatalf("the corrupt first replica's file was not quarantined: %v", err)
	}
}

// TestNodeConcurrentRestoreActivatesOnce: promotions racing each other —
// a coordinator's retry overtaking its own first attempt — and racing
// ordinary requests must activate the node exactly once (a second
// activation would find the restored journal in its way and fail) and
// give every caller the same answer.
func TestNodeConcurrentRestoreActivatesOnce(t *testing.T) {
	dataDir, sinkRoot := t.TempDir(), t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	src, err := StartNode(NodeOptions{
		Config: Config{PoolSize: 1, DataDir: dataDir, NodeName: "a"},
		ShipTo: []string{sinkRoot},
		Ship:   shipper.Options{Sync: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(ctx); err != nil {
		t.Fatal(err)
	}

	standby, err := StartNode(NodeOptions{Config: Config{PoolSize: 1, DataDir: t.TempDir()}, Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(standby)
	defer func() {
		ts.Close()
		standby.Close(ctx)
	}()
	body, _ := json.Marshal(restoreRequest{Node: "a", Sources: []string{filepath.Join(sinkRoot, "a")}})
	const callers = 8
	type answer struct {
		code int
		body string
	}
	answers := make(chan answer, callers)
	for i := 0; i < callers; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/restore", "application/json", strings.NewReader(string(body)))
			if err != nil {
				answers <- answer{0, err.Error()}
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			answers <- answer{resp.StatusCode, string(data)}
			// Ordinary traffic beside the promotion: blank or active, never torn.
			if hr, err := http.Get(ts.URL + "/healthz"); err == nil {
				hr.Body.Close()
			}
		}()
	}
	first := <-answers
	if first.code != http.StatusOK {
		t.Fatalf("promotion: %d %s", first.code, first.body)
	}
	for i := 1; i < callers; i++ {
		if a := <-answers; a != first {
			t.Fatalf("racing promotion answered %d %s, the first %d %s", a.code, a.body, first.code, first.body)
		}
	}
}
