package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/serve"
)

// startJob spins up a bhpod-equivalent test server and submits one small
// job, returning the job's URL.
func startJob(t *testing.T) string {
	t.Helper()
	m := serve.NewManager(serve.Config{PoolSize: 2, MaxJobs: 2})
	ts := httptest.NewServer(serve.NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	job, err := m.SubmitToken(serve.JobSpec{
		Dataset:    "australian",
		Scale:      0.06,
		Method:     "sha",
		NumHPs:     2,
		MaxConfigs: 6,
		Iters:      2,
		Seed:       3,
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	return ts.URL + "/jobs/" + job.ID
}

// TestWatchLiveJob follows a job from submission to completion: the
// ticker must show curve points and lifecycle transitions, and the final
// summary must carry the terminal snapshot.
func TestWatchLiveJob(t *testing.T) {
	jobURL := startJob(t)
	var out strings.Builder
	status, err := watchJob(context.Background(), http.DefaultClient, jobURL, watchOptions{}, &out)
	if err != nil {
		t.Fatalf("watch failed: %v\noutput:\n%s", err, out.String())
	}
	if status != "done" {
		t.Fatalf("terminal status %q, want done", status)
	}
	text := out.String()
	for _, want := range []string{"== running", "== done", "best ", "job done", "best score:", "test score:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

// TestWatchFinishedJob subscribes after the job already finished: the
// full backlog replays and the stream closes immediately.
func TestWatchFinishedJob(t *testing.T) {
	jobURL := startJob(t)
	// First watch runs the job to completion...
	var first strings.Builder
	if _, err := watchJob(context.Background(), http.DefaultClient, jobURL, watchOptions{}, &first); err != nil {
		t.Fatal(err)
	}
	// ...the second one gets the whole feed as backlog.
	var out strings.Builder
	status, err := watchJob(context.Background(), http.DefaultClient, jobURL, watchOptions{Quiet: true}, &out)
	if err != nil {
		t.Fatalf("watch of finished job failed: %v", err)
	}
	if status != "done" {
		t.Fatalf("terminal status %q, want done", status)
	}
	if text := out.String(); !strings.Contains(text, "job done") {
		t.Fatalf("missing final summary:\n%s", text)
	}
}

// TestWatchBadURL: a malformed job URL is rejected before any request.
func TestWatchBadURL(t *testing.T) {
	var out strings.Builder
	if _, err := watchJob(context.Background(), http.DefaultClient, "not-a-url", watchOptions{}, &out); err == nil {
		t.Fatal("invalid URL accepted")
	}
}

// TestWatchRetriesGatewayErrors: 502/503 are what a coordinator answers
// while a worker fails over — the watch must reconnect with its
// Last-Event-ID intact, like a dropped connection, not exit. The stub
// sheds the first two connects with 503 and 502, then serves the feed;
// the watch must come back carrying the sequence it already had.
func TestWatchRetriesGatewayErrors(t *testing.T) {
	var connects atomic.Int64
	var lastEventID atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/job-1/events", func(w http.ResponseWriter, r *http.Request) {
		switch connects.Add(1) {
		case 1:
			http.Error(w, "node a is dead; awaiting replacement", http.StatusServiceUnavailable)
			return
		case 2:
			http.Error(w, "bad gateway", http.StatusBadGateway)
			return
		}
		lastEventID.Store(r.Header.Get("Last-Event-ID"))
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: 1\ndata: {\"seq\":1,\"type\":\"status\",\"status\":\"running\"}\n\n")
		fmt.Fprint(w, "id: 2\ndata: {\"seq\":2,\"type\":\"status\",\"status\":\"done\",\"terminal\":true}\n\n")
	})
	mux.HandleFunc("GET /jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"done","evaluations":1}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out strings.Builder
	status, err := watchJob(context.Background(), http.DefaultClient,
		ts.URL+"/jobs/job-1", watchOptions{Quiet: true}, &out)
	if err != nil {
		t.Fatalf("watch gave up on gateway errors: %v\noutput:\n%s", err, out.String())
	}
	if status != "done" {
		t.Fatalf("terminal status %q, want done", status)
	}
	if n := connects.Load(); n != 3 {
		t.Fatalf("%d connects, want 3 (two shed, one served)", n)
	}
	if got := lastEventID.Load(); got != "" {
		t.Fatalf("Last-Event-ID %q on fresh resume, want empty", got)
	}
}

// TestWatchResumesAfterMidStreamFailover: the feed drops mid-stream (a
// worker died), the next connect is shed with 503 (failover in
// progress), and the one after serves the rest — the watch must resume
// past the last sequence it saw, with no events repeated or skipped.
func TestWatchResumesAfterMidStreamFailover(t *testing.T) {
	var connects atomic.Int64
	var resumedFrom atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/job-1/events", func(w http.ResponseWriter, r *http.Request) {
		switch connects.Add(1) {
		case 1:
			// Two frames, then the node "dies" mid-stream.
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, "id: 1\ndata: {\"seq\":1,\"type\":\"status\",\"status\":\"running\"}\n\n")
			fmt.Fprint(w, "id: 2\ndata: {\"seq\":2,\"type\":\"curve_point\",\"point\":{\"evaluations\":1}}\n\n")
			return
		case 2:
			http.Error(w, "node a is dead; awaiting replacement", http.StatusServiceUnavailable)
			return
		}
		resumedFrom.Store(r.Header.Get("Last-Event-ID"))
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: 3\ndata: {\"seq\":3,\"type\":\"status\",\"status\":\"done\",\"terminal\":true}\n\n")
	})
	mux.HandleFunc("GET /jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"done","evaluations":1}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out strings.Builder
	status, err := watchJob(context.Background(), http.DefaultClient,
		ts.URL+"/jobs/job-1", watchOptions{Quiet: true}, &out)
	if err != nil {
		t.Fatalf("watch did not survive the failover: %v\noutput:\n%s", err, out.String())
	}
	if status != "done" {
		t.Fatalf("terminal status %q, want done", status)
	}
	if got := resumedFrom.Load(); got != "2" {
		t.Fatalf("post-failover connect resumed from %q, want %q", got, "2")
	}
}

// TestWatchUnknownJob: a 404 from the events endpoint is definitive and
// fails fast — no retry budget is spent on it.
func TestWatchUnknownJob(t *testing.T) {
	jobURL := startJob(t)
	base := jobURL[:strings.LastIndex(jobURL, "/")]
	var out strings.Builder
	_, err := watchJob(context.Background(), http.DefaultClient, base+"/job-404", watchOptions{Retries: 1, Quiet: true}, &out)
	if err == nil {
		t.Fatal("watch of unknown job succeeded")
	}
	if !strings.Contains(err.Error(), "404") {
		t.Fatalf("error does not surface the 404: %v", err)
	}
}
