package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/serve/journal"
	"enhancedbhpo/internal/serve/jsonscan"
)

// pathLogs runs every lifecycle path and returns the log each leaves.
func pathLogs(t testing.TB) [][]segment {
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
// file under the data directory, no job it runs again holds a spec that
// JobSpec.Validate refuses, and neither it nor any GET /jobs, /jobs/{id}
// or /trace of what it serves panics. The seeds are every path's log as
// it is, a record and an event line to mutate, and a queued job whose
// spec does not validate.
func FuzzBoot(f *testing.F) {
	for i := range lifecyclePaths() {
		f.Add(uint8(i), []byte(nil))
	}
	f.Add(uint8(0), []byte(`{"t":"result","time":"2026-08-05T10:00:00Z","job":"job-1","status":"done","evaluations":2,"budget":20,"best_score":0.5}`+"\n"))
	f.Add(uint8(6), []byte(`{"t":"preempt","time":"2026-08-05T10:00:00Z","job":"job-1","tenant":"victim","evaluations":3,"checkpoint":{"preempts":1}}`+"\n"))
	f.Add(uint8(1), []byte(`{"seq":9,"type":"curve_point","time":"2026-08-05T10:00:00Z","job":"job-1","point":{"evaluations":3,"cum_budget":30,"cum_time_ns":1,"best_score":0.5}}`+"\n"))
	f.Add(uint8(2), []byte(`{"t":"submit","time":"2026-08-05T10:00:00Z","job":"job-9","spec":{"tenant":"default","dataset":"australian","scale":-1,"dataset_seed":1,"method":"sha","hps":2,"max_configs":6,"seed":3,"iters":2},"tenant":"default"}`+"\n"))
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
		for _, job := range m.Jobs() {
			// Only the jobs the boot runs again are queued or running; a
			// terminal record's status, however odd, launches nothing.
			live := job.Status() == StatusQueued || job.Status() == StatusRunning
			if err := job.Spec.Validate(); err != nil && live {
				t.Fatalf("the boot runs %s again on a spec that does not validate: %v", job.ID, err)
			}
		}
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

// logLines returns every line of the logs the lifecycle paths leave.
func logLines(tb testing.TB) [][]byte {
	var out [][]byte
	for _, segs := range pathLogs(tb) {
		for _, seg := range segs {
			out = append(out, bytes.Split(bytes.TrimSuffix(seg.data, []byte("\n")), []byte("\n"))...)
		}
	}
	return out
}

// nested is a submit record whose spec nests arrays so that the line is
// depth containers deep.
func nested(depth int) string {
	return `{"t":"submit","time":"2026-08-05T10:00:00Z","job":"job-1","spec":` +
		strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`
}

// edgeRows are lines at the edges of what encoding/json accepts, decodes
// or refuses: the nesting limit, escapes and surrogates, bytes that are
// not UTF-8, repeated and case-folded keys, nulls, and numbers an int
// field refuses. FuzzValid and FuzzDecodeRecord start from them besides
// the lifecycle paths' lines.
var edgeRows = []string{
	nested(10000), nested(10001),
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	`{"t":"status","time":"2026-08-05T10:00:00Z","job":"job-\ud800","status":"running"}`,
	`{"t":"result","time":"2026-08-05T10:00:00Z","job":"job-1","status":"failed","error":"\ud83d\ude00 \udc00\ud800"}`,
	`{"t":"result","time":"2026-08-05T10:00:00Z","job":"job-1","status":"failed","error":"a\nb","stack":"\tat \u003cnil\u003e"}`,
	"{\"t\":\"status\",\"time\":\"2026-08-05T10:00:00Z\",\"job\":\"job-\xff\",\"status\":\"running\"}",
	"{\"t\":\"result\",\"time\":\"2026-08-05T10:00:00Z\",\"job\":\"job-1\",\"status\":\"done\",\"best_config\":{\"solver\":\"\xe2\x28\xa1\"}}",
	`{"t":"status","time":"2026-08-05T10:00:00Z","job":"job-1","job":"job-2","status":"running"}`,
	`{"t":"result","time":"2026-08-05T10:00:00Z","job":"job-1","status":"done","best_config":{"a":1,"a":[2,{"b":null}]}}`,
	`{"T":"status","TIME":"2026-08-05T10:00:00Z","Job":"job-1","status":"running"}`,
	`{"t":"status","time":"2026-08-05T10:00:00Z","job":"job-1","Job":"job-2"}`,
	`{"t":"result","time":null,"job":"job-1","spec":null,"status":null,"evaluations":null,"best_config":null,"best_score":null,"checkpoint":null}`,
	`{"t":"result","time":"2026-08-05T10:00:00Z","job":"job-1","status":"done","best_config":{},"best_score":-0,"test_score":1e400}`,
	`{"t":"result","time":"2026-08-05T10:00:00Z","job":"job-1","status":"done","evaluations":1e2}`,
	`{"t":"result","time":"2026-08-05T10:00:00Z","job":"job-1","status":"done","budget":1.0,"failures":-0}`,
	`{"t":"result","time":"2026-08-05T10:00:00Z","job":"job-1","status":"done","evaluations":012}`,
	`{"t":"result","time":"2026-08-05T10:00:00Z","job":"job-1","evaluations":999999999999999999,"budget":9223372036854775807,"failures":9223372036854775808}`,
	`{"t":"preempt","time":"2026-08-05T10:00:00+02:00","job":"job-1","tenant":"victim","evaluations":3,"checkpoint":{ "preempts" : 1 }}`,
	`{"t": "status","time":"2026-08-05T10:00:00Z","job":"job-1"}`,
	`{"t":"status","time":"2026-08-05 10:00:00Z","job":"job-1"}`,
	`{"t":"status","time":"2026-08-05T10:00:00\u005a","job":"job-1"}`,
	`{"t":"status","time":"2026-08-05T10:00:00Z","job":"job-1"} `,
	`{"t":"submit","time":"2026-08-05T10:00:00Z","job":"job-1","spec":{"tenant":"a","dataset":"australian","scale":1e400,"dataset_seed":18446744073709551615,"method":"sha","enhanced":true,"hps":1.0,"seed":9999999999999999999,"use_f1":false}}`,
	`{"t":"submit","time":"2026-08-05T10:00:00Z","job":"job-1","spec":{"dataset":"australian","method":"sha","seed":00}}`,
	`{"t":"submit","time":"2026-08-05T10:00:00Z","job":"job-1","spec":{"dataset":"australian","dataset_seed":99999999999999999999,"method":"sha"}}`,
	`{"t":"submit","time":"2026-08-05T10:00:00Z","job":"job-1","spec":{"tenant":"\u0061","Dataset":"australian","method":"sha","enhanced":null,"seed":-1,"iters":99999999999999999999,"workers":-3,"timeout_sec":0.5}}`,
}

// FuzzValid holds jsonscan.Valid, which a boot checks every event line
// of the log with, to json.Valid. The seeds are every line of the
// lifecycle paths' logs and the edge rows.
func FuzzValid(f *testing.F) {
	for _, line := range logLines(f) {
		f.Add(line)
	}
	for _, row := range edgeRows {
		f.Add([]byte(row))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if got, want := jsonscan.Valid(line), json.Valid(line); got != want {
			t.Fatalf("jsonscan.Valid(%q) = %t, json.Valid says %t", line, got, want)
		}
	})
}

// FuzzDecodeRecord holds journal.Decoder.Record, which a boot decodes the
// log's records with, to json.Unmarshal: a line it decodes by hand,
// json.Unmarshal decodes without error to the same Record — again when the
// decoder has kept the line's strings. A submit record's spec decodes
// (decodeSpec) to what json.Unmarshal gives, or fails as it does. The
// seeds are FuzzValid's.
func FuzzDecodeRecord(f *testing.F) {
	for _, line := range logLines(f) {
		f.Add(line)
	}
	for _, row := range edgeRows {
		f.Add([]byte(row))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var d journal.Decoder
		got, ok := d.Record(line)
		if !ok {
			return
		}
		var want journal.Record
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("decoded %q by hand, which json.Unmarshal refuses: %v", line, err)
		}
		again, _ := d.Record(line)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(again, want) {
			t.Fatalf("%q decodes by hand to\n%#v\nand again to\n%#v\njson.Unmarshal to\n%#v", line, got, again, want)
		}
		if got.Type != journal.TypeSubmit || got.Spec == nil {
			return
		}
		var wantSpec JobSpec
		wantErr := json.Unmarshal(got.Spec, &wantSpec)
		if spec, err := decodeSpec(&d, got.Spec); (err == nil) != (wantErr == nil) || err == nil && spec != wantSpec {
			t.Fatalf("spec %s decodes to %+v, %v; json.Unmarshal gives %+v, %v", got.Spec, spec, err, wantSpec, wantErr)
		}
	})
}

// TestRecordsDecodeByHand counts the record lines of the lifecycle
// paths' logs that take the hand path: all of them but those whose
// strings need unescaping, so FuzzDecodeRecord's seeds reach it.
func TestRecordsDecodeByHand(t *testing.T) {
	var records, byHand int
	var d journal.Decoder
	for _, line := range logLines(t) {
		if !bytes.HasPrefix(line, []byte(`{"t":`)) {
			continue
		}
		records++
		if _, ok := d.Record(line); ok {
			byHand++
		} else if !bytes.Contains(line, []byte(`\`)) {
			t.Errorf("record line %s is decoded by json.Unmarshal, not by hand", line)
		}
	}
	t.Logf("%d of %d record lines decoded by hand", byHand, records)
	if byHand == 0 {
		t.Fatal("no record line decoded by hand")
	}
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
