package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// warmJobSpec is the repository benchmark's warm-resubmit probe: SHA over
// eight configurations of a 55-row dataset, one epoch — fourteen cache
// lookups and a memoized refit once the first run has filled the caches.
func warmJobSpec() JobSpec {
	return JobSpec{
		Dataset: "australian", Method: "sha", Enhanced: true, Scale: 0.1, Iters: 1,
		MaxConfigs: 8, Seed: 1, DatasetSeed: 977,
	}
}

// streamRecorder is a ResponseWriter that flushes and keeps one response
// body, reused request after request, so a measurement counts the
// service's allocations rather than the recorder's.
type streamRecorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *streamRecorder) Header() http.Header         { return w.header }
func (w *streamRecorder) WriteHeader(code int)        { w.code = code }
func (w *streamRecorder) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *streamRecorder) Flush()                      {}

func (w *streamRecorder) reset() {
	clear(w.header)
	w.code = http.StatusOK
	w.body.Reset()
}

// warmJobRunner serves warmJobSpec in process on a persistent manager with
// no janitor and no shipper, runs it once cold, and returns a function
// that submits it again and drains its event stream to the end: one
// all-hit job through the same handlers a daemon serves.
func warmJobRunner(tb testing.TB) func() {
	tb.Helper()
	m, err := NewManagerFromJournal(Config{PoolSize: 1, DataDir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := m.Shutdown(context.Background()); err != nil {
			tb.Error(err)
		}
	})
	srv := NewServer(m)
	body, err := json.Marshal(warmJobSpec())
	if err != nil {
		tb.Fatal(err)
	}
	w := &streamRecorder{header: http.Header{}}
	var sub bytes.Reader
	submit := httptest.NewRequest(http.MethodPost, "/jobs", &sub)
	run := func() {
		w.reset()
		sub.Reset(body)
		srv.ServeHTTP(w, submit)
		if w.code != http.StatusAccepted {
			tb.Fatalf("POST /jobs: %d %s", w.code, w.body.Bytes())
		}
		_, id, _ := bytes.Cut(w.body.Bytes(), []byte(`"id": "`))
		id, _, _ = bytes.Cut(id, []byte(`"`))
		w.reset()
		stream, err := http.NewRequest(http.MethodGet, "/jobs/"+string(id)+"/events", nil)
		if err != nil {
			tb.Fatal(err)
		}
		srv.ServeHTTP(w, stream)
		if !bytes.Contains(w.body.Bytes(), []byte(`"terminal":true`)) {
			tb.Fatalf("stream of %s ended without its terminal event:\n%s", id, w.body.Bytes())
		}
	}
	run() // cold: fills the scope's caches
	if st := m.Metrics(); st.CacheMisses == 0 {
		tb.Fatalf("cold run missed no cache entry: %+v", st)
	}
	return run
}

// The allocation budget of one warm job, submit and stream drained: 260
// objects and 34.6 KB measured on amd64 at one, two and four Ps, with an
// event encoded once and configurations sampled by index (698 objects
// and 69.6 KB when every event was encoded twice and SHA built the whole
// space), plus slack.
const (
	warmJobAllocs = 275
	warmJobBytes  = 36 << 10
)

// TestWarmJobAllocs pins what a cache-hit job allocates end to end, in
// objects and in bytes: a change that encodes an event twice, builds the
// whole search space or copies what the hub already holds shows here
// first, as a count.
func TestWarmJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled encoder state at random")
	}
	run := warmJobRunner(t)
	allocs := testing.AllocsPerRun(50, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const jobs = 50
	for range jobs {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / jobs
	t.Logf("a warm job allocates %.0f objects, %d bytes", allocs, bytes)
	if allocs > warmJobAllocs || bytes > warmJobBytes {
		t.Fatalf("a warm job allocates %.0f objects and %d bytes, budget %d and %d", allocs, bytes, warmJobAllocs, warmJobBytes)
	}
}

// BenchmarkWarmJob submits and drains one all-hit job per iteration —
// the service path alone, which the repository benchmark's warm-resubmit
// workload measures through the coordinator. `make bench-smoke` runs it
// once;
//
//	go test -run '^$' -bench BenchmarkWarmJob -benchtime 2000x -benchmem ./internal/serve/
//
// gives the time and bytes per job CHANGES.md quotes.
func BenchmarkWarmJob(b *testing.B) {
	run := warmJobRunner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		run()
	}
}
