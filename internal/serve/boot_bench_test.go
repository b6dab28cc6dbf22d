package serve

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/serve/journal"
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

// BenchmarkBoot times NewManagerFromJournal on the data directory of a
// daemon killed with 400 finished 14-evaluation jobs, one job running and
// three queued — built once, through a real manager with a stub evaluator,
// and copied for every iteration. `make bench-smoke` runs it once;
//
//	go test -run '^$' -bench BenchmarkBoot -benchtime 30x -benchmem ./internal/serve/
//
// is the number CHANGES.md quotes (add -cpuprofile for the per-phase split),
// beside journal-B/job: the snapshot's journal bytes per restored job.
func BenchmarkBoot(b *testing.B) {
	const fill, queued = 400, 3
	snapshot := b.TempDir()
	hold, entered := make(chan struct{}), make(chan struct{})
	cfg := Config{PoolSize: 2, MaxJobs: 1, MaxPending: 4096, DataDir: snapshot}
	cfg.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
		if id == "job-401" {
			return &stubEvaluator{inner: inner, free: 5, hold: hold, entered: entered}
		}
		return &stubEvaluator{inner: inner}
	}
	stop := func(m *Manager) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			b.Errorf("shutdown: %v", err)
		}
	}
	m1, err := NewManagerFromJournal(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer stop(m1)
	defer close(hold)
	for i := 0; i < fill+1+queued; i++ {
		if i == fill+1 {
			<-entered // the fill is done and job-401 frozen on its sixth evaluation
		}
		if _, err := m1.SubmitToken(bootFillSpec(), ""); err != nil {
			b.Fatal(err)
		}
	}
	if got := m1.Metrics(); got.JobsDone != fill || got.JobsRunning != 1 || got.JobsQueued != queued {
		b.Fatalf("snapshot holds %d done, %d running, %d queued jobs", got.JobsDone, got.JobsRunning, got.JobsQueued)
	}
	journalBytes := journal.DirStats(snapshot).Bytes

	var elapsed time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cfg
		c.DataDir = filepath.Join(b.TempDir(), "data")
		copyTree(b, snapshot, c.DataDir)
		release := make(chan struct{})
		c.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
			return &stubEvaluator{inner: inner, hold: release} // the re-run jobs do no work inside the timing
		}
		b.StartTimer()
		start := time.Now()
		m, err := NewManagerFromJournal(c)
		elapsed += time.Since(start)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if n := len(m.Jobs()); n != fill+1+queued {
			b.Fatalf("boot restored %d jobs, want %d", n, fill+1+queued)
		}
		close(release)
		stop(m)
		b.StartTimer()
	}
	b.ReportMetric(float64(elapsed.Microseconds())/1000/float64(b.N), "ms/boot")
	b.ReportMetric(float64(journalBytes)/(fill+1+queued), "journal-B/job")
}
