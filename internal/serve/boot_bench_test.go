package serve

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// copyTree copies a data directory — what a benchmark iteration or a test
// boots on, leaving the original as it was.
func copyTree(tb testing.TB, src, dst string) {
	tb.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// stubEvaluator scores from the stream it is handed and trains nothing.
// Once free evaluations have been served it signals entered and every
// further one waits for hold to close: a job frozen mid-run.
type stubEvaluator struct {
	inner   hpo.Evaluator
	calls   atomic.Int64
	free    int64
	hold    <-chan struct{} // nil: never holds
	entered chan<- struct{}
}

func (s *stubEvaluator) FullBudget() int { return s.inner.FullBudget() }

func (s *stubEvaluator) Evaluate(_ search.Config, _ int, r *rng.RNG) ([]float64, error) {
	if n := s.calls.Add(1); s.hold != nil && n > s.free {
		if n == s.free+1 && s.entered != nil {
			close(s.entered)
		}
		<-s.hold
	}
	return []float64{r.Float64(), r.Float64(), r.Float64()}, nil
}

// bootFillSpec is a 14-evaluation job (SHA over 8 configurations), the
// shape of the repository benchmark's crash-recover fill.
func bootFillSpec() JobSpec {
	return JobSpec{Dataset: "australian", Method: "sha", Enhanced: true, Scale: 0.1, Iters: 1, MaxConfigs: 8, Seed: 1}
}

// bootSnapshot builds, through a real manager with a stub evaluator, the
// data directory of a daemon killed with fill finished 14-evaluation jobs,
// one job running and three queued, and returns it with the config a boot
// of a copy of it uses: one job slot, and evaluations held until the boot
// is shut down, so the jobs it runs again do no work.
func bootSnapshot(tb testing.TB, fill int) (snapshot string, boot func(dataDir string, hold <-chan struct{}) Config) {
	tb.Helper()
	const queued = 3
	snapshot = tb.TempDir()
	hold, entered := make(chan struct{}), make(chan struct{})
	cfg := Config{PoolSize: 2, MaxJobs: 1, MaxPending: fill + 8, DataDir: snapshot}
	cfg.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
		if id == fmt.Sprintf("job-%d", fill+1) {
			return &stubEvaluator{inner: inner, free: 5, hold: hold, entered: entered}
		}
		return &stubEvaluator{inner: inner}
	}
	m, err := NewManagerFromJournal(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < fill+1+queued; i++ {
		if i == fill+1 {
			<-entered // the fill is done and the next job frozen on its sixth evaluation
		}
		if _, err := m.SubmitToken(bootFillSpec(), ""); err != nil {
			tb.Fatal(err)
		}
	}
	if got := m.Metrics(); got.JobsDone != fill || got.JobsRunning != 1 || got.JobsQueued != queued {
		tb.Fatalf("snapshot holds %d done, %d running, %d queued jobs", got.JobsDone, got.JobsRunning, got.JobsQueued)
	}
	tb.Cleanup(func() {
		close(hold)
		stopBoot(tb, m)
	})
	return snapshot, func(dataDir string, hold <-chan struct{}) Config {
		c := cfg
		c.DataDir = dataDir
		c.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
			return &stubEvaluator{inner: inner, hold: hold}
		}
		return c
	}
}

// stopBoot shuts a booted manager down.
func stopBoot(tb testing.TB, m *Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		tb.Errorf("shutdown: %v", err)
	}
}

// BenchmarkBoot times NewManagerFromJournal on bootSnapshot's data
// directory, with 400 and with 4 000 finished jobs, copied for every
// iteration. `make bench-smoke` runs it once;
//
//	go test -run '^$' -bench BenchmarkBoot -benchtime 30x -benchmem ./internal/serve/
//
// is the number CHANGES.md quotes (add -cpuprofile for the per-phase split):
// the time per boot and per restored job, the time until journal.Fold
// returned and until its read of the log ended, and log-B/job, the bytes of
// the snapshot's log — records and events — per restored job.
func BenchmarkBoot(b *testing.B) {
	for _, fill := range []int{400, 4000} {
		b.Run(fmt.Sprintf("done=%d", fill), func(b *testing.B) {
			snapshot, boot := bootSnapshot(b, fill)
			jobs := fill + 4
			var elapsed, fold, read time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(b.TempDir(), "data")
				copyTree(b, snapshot, dir)
				release := make(chan struct{}) // the re-run jobs do no work inside the timing
				b.StartTimer()
				start := time.Now()
				m, err := NewManagerFromJournal(boot(dir, release))
				elapsed += time.Since(start)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if n := len(m.Jobs()); n != jobs {
					b.Fatalf("boot restored %d jobs, want %d", n, jobs)
				}
				fold += m.boot.journal
				read += m.boot.trace
				close(release)
				stopBoot(b, m)
				b.StartTimer()
			}
			perBoot := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 / float64(b.N) }
			b.ReportMetric(perBoot(elapsed), "ms/boot")
			b.ReportMetric(perBoot(elapsed)*1000/float64(jobs), "µs/job")
			b.ReportMetric(perBoot(fold), "fold-ms/boot")
			b.ReportMetric(perBoot(read), "read-ms/boot")
			b.ReportMetric(float64(dirBytes(b, snapshot))/float64(jobs), "log-B/job")
		})
	}
}

// dirBytes is the size of the files under dir.
func dirBytes(tb testing.TB, dir string) int64 {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// The allocation budget of a boot per restored job, on the snapshot of
// BenchmarkBoot's 400 finished jobs: 30 objects and 9.4 KB measured on
// amd64, with event lines checked by jsonscan and records and specs
// decoded by hand (100 objects and 11.1 KB when json.Valid checked the
// lines and json.Unmarshal decoded the records and specs), plus slack.
// About 3.5 KB of the bytes are the log itself, read whole.
const (
	bootAllocsPerJob = 32
	bootBytesPerJob  = 10 << 10
)

// TestBootAllocs pins what a boot allocates per restored job, in objects
// and in bytes, on BenchmarkBoot's snapshot of 400 finished jobs: a change
// that sends the log's lines back through encoding/json, or copies what
// the read already holds, shows here first, as a count. Like
// testing.AllocsPerRun it runs on one P, so the jobs the boot launches do
// not start before it returns.
func TestBootAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the code it watches")
	}
	snapshot, boot := bootSnapshot(t, 400)
	const jobs, boots = 404, 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var objects, bytes uint64
	for range boots {
		dir := filepath.Join(t.TempDir(), "data")
		copyTree(t, snapshot, dir)
		release := make(chan struct{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := NewManagerFromJournal(boot(dir, release))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		objects += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		close(release)
		stopBoot(t, m)
	}
	objects, bytes = objects/(boots*jobs), bytes/(boots*jobs)
	t.Logf("a boot allocates %d objects and %d bytes per restored job", objects, bytes)
	if objects > bootAllocsPerJob || bytes > bootBytesPerJob {
		t.Fatalf("a boot allocates %d objects and %d bytes per restored job, budget %d and %d",
			objects, bytes, bootAllocsPerJob, bootBytesPerJob)
	}
}
