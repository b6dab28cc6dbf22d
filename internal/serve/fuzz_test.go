package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"enhancedbhpo/internal/hpo"
)

// pathLogs runs every lifecycle path and returns the log each leaves.
func pathLogs(t *testing.T) [][]segment {
	var logs [][]segment
	for _, tc := range lifecyclePaths() {
		cfg := lifecycleConfig(t)
		m, _ := tc.run(t, cfg)
		shutdown(t, m)
		logs = append(logs, logSegments(t, cfg.DataDir))
	}
	return logs
}

// FuzzBoot appends bytes to the newest segment of a lifecycle path's log
// and boots it: the boot either succeeds or fails with an error naming a
// file under the data directory, and neither it nor any GET /jobs,
// /jobs/{id} or /trace of what it serves panics. The seeds are every
// path's log as it is, and a record and an event line to mutate.
func FuzzBoot(f *testing.F) {
	for i := range lifecyclePaths() {
		f.Add(uint8(i), []byte(nil))
	}
	f.Add(uint8(0), []byte(`{"t":"result","time":"2026-08-05T10:00:00Z","job":"job-1","status":"done","evaluations":2,"budget":20,"best_score":0.5}`+"\n"))
	f.Add(uint8(6), []byte(`{"t":"preempt","time":"2026-08-05T10:00:00Z","job":"job-1","tenant":"victim","evaluations":3,"checkpoint":{"preempts":1}}`+"\n"))
	f.Add(uint8(1), []byte(`{"seq":9,"type":"curve_point","time":"2026-08-05T10:00:00Z","job":"job-1","point":{"evaluations":3,"cum_budget":30,"cum_time_ns":1,"best_score":0.5}}`+"\n"))
	var once sync.Once
	var logs [][]segment
	f.Fuzz(func(t *testing.T, path uint8, tail []byte) {
		once.Do(func() { logs = pathLogs(t) })
		segs := logs[int(path)%len(logs)]
		dir := t.TempDir()
		last := len(segs) - 1
		crashCut{last, 0}.write(t, segs, dir)
		writeFile(t, filepath.Join(dir, segs[last].rel), append(slices.Clip(segs[last].data), tail...))

		hold := make(chan struct{})
		defer close(hold)
		m, err := NewManagerFromJournal(heldConfig(dir, hold))
		if err != nil {
			if !strings.Contains(err.Error(), dir+string(filepath.Separator)) {
				t.Fatalf("the boot failed with %v, naming no file under %s", err, dir)
			}
			return
		}
		defer shutdown(t, m)
		h := NewServer(m)
		get := func(path string) {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
		}
		get("/jobs")
		for _, job := range m.Jobs() {
			for _, p := range []string{"", "/trace", "/trace?events=1"} {
				get("/jobs/" + url.PathEscape(job.ID) + p)
			}
		}
	})
}

// FuzzSubmit posts bodies to POST /jobs of a manager whose one job slot a
// held job fills, so every job it accepts stays queued: each body answers
// 202, 400, 409, 429 or 503 — never 500, never a panic. The seeds are
// TestBadSubmissions' bodies and smallSpec.
func FuzzSubmit(f *testing.F) {
	small, err := json.Marshal(smallSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	for _, body := range badSubmissions {
		f.Add([]byte(body))
	}
	hold, entered := make(chan struct{}), make(chan struct{})
	m := NewManager(Config{PoolSize: 1, MaxJobs: 1, EvalTimeout: time.Hour,
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			if id == "job-1" {
				return &stubEvaluator{inner: inner, hold: hold, entered: entered}
			}
			return &stubEvaluator{inner: inner, hold: hold}
		}})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			f.Errorf("shutdown: %v", err)
		}
		close(hold)
	})
	if _, err := m.SubmitToken(smallSpec(), ""); err != nil {
		f.Fatal(err)
	}
	<-entered
	h := NewServer(m)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusConflict, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST /jobs %q answered %d %s", body, rec.Code, rec.Body)
		}
	})
}
