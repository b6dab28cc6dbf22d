package serve

import (
	"encoding/json"
	"sync/atomic"
	"testing"

	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/serve/journal"
	"enhancedbhpo/internal/serve/tracestore"
)

// canonJSON is v's JSON encoding, map keys sorted.
func canonJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestPreemptRecordStaysSmall: a preempt record carries a count, not the
// trials: preempted after 50 trials, a job journals a record of under 300
// bytes.
func TestPreemptRecordStaysSmall(t *testing.T) {
	const trials = 50
	gate, victimIn := make(chan struct{}), make(chan struct{}, 1)
	var calls atomic.Int64 // across the victim's segments
	cfg := resumeConfig(t)
	cfg.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
		stub := &stubEvaluator{inner: inner}
		if id != "job-1" {
			return stub
		}
		return funcEvaluator{inner, func(c search.Config, budget int, r *rng.RNG) ([]float64, error) {
			if calls.Add(1) == trials {
				victimIn <- struct{}{}
				<-gate
			}
			return stub.Evaluate(c, budget, r)
		}}
	}
	m := bootJournaled(t, cfg)
	defer shutdown(t, m)
	spec := JobSpec{Tenant: "victim", Dataset: "australian", Scale: 0.06, Method: "sha", NumHPs: 4, MaxConfigs: 64, Iters: 2, Seed: 7}
	victim := submitAs(t, m, spec, "job-1")
	<-victimIn
	submitAs(t, m, tinySpec("vip", 70), "job-2")
	close(gate)
	waitJob(t, m, "job-1", func(s Status) bool { return s == StatusDone }, "done")
	if n := victim.Snapshot().Preemptions; n != 1 {
		t.Fatalf("the victim was preempted %d times; the test needs once", n)
	}
	found := 0
	_, err := tracestore.ReadAll(TraceDir(cfg.DataDir), func(line []byte) {
		var rec journal.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type != journal.TypePreempt {
			return
		}
		found++
		if rec.Evaluations < trials || len(line) >= 300 {
			t.Errorf("preempt record after %d evaluations is %d bytes: %s", rec.Evaluations, len(line), line)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if found != 1 {
		t.Errorf("%d preempt records in the log, want 1", found)
	}
}
