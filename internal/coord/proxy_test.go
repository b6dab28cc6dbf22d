package coord

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"enhancedbhpo/internal/serve"
)

// TestCoordinatorProxyPassthrough: every per-job route asked through the
// coordinator answers what the real worker answers when asked directly —
// status, Content-Type, Retry-After and body — modulo the node: prefix on
// the snapshot's ID, including sub-routes the coordinator has never heard
// of; and an ID the coordinator cannot resolve gets its own documented
// 404 (unqualified, unknown node) or retryable 503 (dead, restoring).
func TestCoordinatorProxyPassthrough(t *testing.T) {
	m := serve.NewManager(serve.Config{PoolSize: 2, MaxJobs: 4})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	// The worker is a real bhpod API plus one sub-route no coordinator
	// knows, shedding with a priced Retry-After; it notes the
	// Last-Event-ID each events request arrived with.
	var mu sync.Mutex
	var sawLastEventID []string
	api := serve.NewServer(m)
	workerMux := http.NewServeMux()
	workerMux.HandleFunc("GET /jobs/{id}/busy", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Retry-After", "7")
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(rw, `{"error":"busy","job":"`+r.PathValue("id")+`"}`)
	})
	workerMux.HandleFunc("/", func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			mu.Lock()
			sawLastEventID = append(sawLastEventID, r.Header.Get("Last-Event-ID"))
			mu.Unlock()
		}
		api.ServeHTTP(rw, r)
	})
	worker := httptest.NewServer(workerMux)
	t.Cleanup(worker.Close)
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()

	c, err := New(Config{
		Nodes: []Node{{Name: "a", URL: worker.URL}, {Name: "d", URL: gone.URL}, {Name: "r", URL: gone.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(c)
	t.Cleanup(front.Close)
	for range deadAfter { // d and r die
		c.ProbeNow()
	}
	c.prober.update("r", func(e *probeEntry) { e.restoring = true })

	// One finished job, so every answer below is stable.
	_, snap := postJob(t, front.URL, serve.JobSpec{
		Dataset: "australian", Scale: 0.06, Method: "sha", NumHPs: 2, MaxConfigs: 6, Iters: 2, Seed: 3,
	})
	qualified := snap.ID
	node, local, ok := splitID(qualified)
	if !ok || node != "a" {
		t.Fatalf("job ID %q, want a:<local id>", qualified)
	}
	if got := waitTerminal(t, front.URL, qualified); got.Status != serve.StatusDone {
		t.Fatalf("job %s: %s, want done", qualified, got.Status)
	}

	type answer struct {
		status                  int
		contentType, retryAfter string
		body                    string
	}
	ask := func(method, url, lastEventID string) answer {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return answer{resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), string(body)}
	}

	// Passthrough rows: the same request to the worker (local ID) and to
	// the coordinator (qualified ID) must answer alike.
	for _, row := range []struct {
		name, method string
		path         func(id string) string
		lastEventID  string
		status       int
	}{
		{"snapshot", "GET", func(id string) string { return "/jobs/" + id }, "", 200},
		{"snapshot, escaped colon", "GET", func(id string) string { return "/jobs/" + strings.Replace(id, ":", "%3A", 1) }, "", 200},
		{"snapshot since", "GET", func(id string) string { return "/jobs/" + id + "?since=2" }, "", 200},
		{"snapshot, bad since", "GET", func(id string) string { return "/jobs/" + id + "?since=x" }, "", 400},
		{"cancel a finished job", "DELETE", func(id string) string { return "/jobs/" + id }, "", 200},
		{"trace", "GET", func(id string) string { return "/jobs/" + id + "/trace" }, "", 200},
		{"trace events", "GET", func(id string) string { return "/jobs/" + id + "/trace?events=1" }, "", 200},
		{"events", "GET", func(id string) string { return "/jobs/" + id + "/events" }, "", 200},
		{"events resumed", "GET", func(id string) string { return "/jobs/" + id + "/events" }, "3", 200},
		{"events, bad Last-Event-ID", "GET", func(id string) string { return "/jobs/" + id + "/events" }, "x", 400},
		{"sub-route the worker lacks", "GET", func(id string) string { return "/jobs/" + id + "/nope" }, "", 404},
		{"sub-route only the worker knows", "GET", func(id string) string { return "/jobs/" + id + "/busy" }, "", 429},
		{"job the worker lacks", "GET", func(id string) string { return "/jobs/" + strings.Replace(id, local, "job-999", 1) }, "", 404},
	} {
		t.Run(row.name, func(t *testing.T) {
			direct := ask(row.method, worker.URL+row.path(local), row.lastEventID)
			proxied := ask(row.method, front.URL+row.path(qualified), row.lastEventID)
			if direct.status != row.status {
				t.Fatalf("the worker itself answered %d, want %d: the row is wrong", direct.status, row.status)
			}
			// Modulo the node: prefix on the job's ID.
			proxied.body = strings.ReplaceAll(proxied.body, `"id": "a:`, `"id": "`)
			if proxied != direct {
				t.Fatalf("through the coordinator:\n%+v\ndirect:\n%+v", proxied, direct)
			}
			if strings.HasSuffix(row.path(""), "/events") {
				mu.Lock()
				saw := append([]string(nil), sawLastEventID...)
				mu.Unlock()
				if n := len(saw); n < 2 || saw[n-1] != row.lastEventID || saw[n-2] != row.lastEventID {
					t.Fatalf("worker saw Last-Event-ID %q, want %q both times", saw, row.lastEventID)
				}
			}
		})
	}

	// The snapshot's ID comes back re-qualified, with a length that fits.
	resp, err := http.Get(front.URL + "/jobs/" + qualified)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading the re-qualified snapshot: %v", err)
	}
	var got serve.Snapshot
	if err := json.Unmarshal(body, &got); err != nil || got.ID != qualified {
		t.Fatalf("proxied snapshot ID %q (%v), want re-qualified %q", got.ID, err, qualified)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length %d for a %d-byte snapshot", resp.ContentLength, len(body))
	}

	// IDs the coordinator answers for itself.
	for _, row := range []struct {
		name, path string
		status     int
		errText    string
	}{
		{"unqualified", "/jobs/job-1", 404, `no job "job-1" (cluster job IDs are node-qualified, e.g. "a:job-1")`},
		{"unqualified sub-route", "/jobs/job-1/events", 404, `no job "job-1" (cluster job IDs are node-qualified, e.g. "a:job-1")`},
		{"unknown node", "/jobs/zz:job-1", 404, `no node "zz"`},
		{"dead node", "/jobs/d:job-1", 503, "node d is dead; awaiting replacement"},
		{"dead node sub-route", "/jobs/d:job-1/trace", 503, "node d is dead; awaiting replacement"},
		{"restoring node", "/jobs/r:job-1/events", 503, "node r is being restored; retry shortly"},
	} {
		t.Run(row.name, func(t *testing.T) {
			a := ask("GET", front.URL+row.path, "")
			var eb errorBody
			if err := json.Unmarshal([]byte(a.body), &eb); err != nil {
				t.Fatalf("body %q is not the JSON error envelope: %v", a.body, err)
			}
			if a.status != row.status || a.contentType != "application/json" || eb.Error != row.errText {
				t.Fatalf("got %d %s %q, want %d application/json %q", a.status, a.contentType, eb.Error, row.status, row.errText)
			}
		})
	}
}
