package serve

import "testing"

// TestSubmitTokenIdempotent: resubmitting under the same token must
// return the already-accepted job — the guarantee a coordinator's
// submit-path retry rests on — while distinct tokens stay independent.
func TestSubmitTokenIdempotent(t *testing.T) {
	ts, m := newTestServer(t, Config{PoolSize: 2, MaxJobs: 2})
	first := postJobToken(t, ts.URL, "tok-1", smallSpec())
	dup := postJobToken(t, ts.URL, "tok-1", smallSpec())
	if dup.ID != first.ID {
		t.Fatalf("same token minted a second job: %s then %s", first.ID, dup.ID)
	}
	other := postJobToken(t, ts.URL, "tok-2", smallSpec())
	if other.ID == first.ID {
		t.Fatalf("different token returned the same job %s", other.ID)
	}
	if got := len(m.Jobs()); got != 2 {
		t.Fatalf("%d jobs after a duplicate submission, want 2", got)
	}
}

// TestSubmitTokenSurvivesRestart: tokens ride in the journal's submit
// records, so a retry landing on a restarted (or restored) node still
// deduplicates against the job the dead incarnation acked.
func TestSubmitTokenSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{PoolSize: 2, MaxJobs: 2, DataDir: dir}
	m1 := bootJournaled(t, cfg)
	job, err := m1.SubmitToken(smallSpec(), "tok-restart")
	if err != nil {
		t.Fatal(err)
	}
	shutdown(t, m1)

	m2 := bootJournaled(t, cfg)
	defer shutdown(t, m2)
	dup, err := m2.SubmitToken(smallSpec(), "tok-restart")
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != job.ID {
		t.Fatalf("token minted a new job across restart: %s then %s", job.ID, dup.ID)
	}
	if got := len(m2.Jobs()); got != 1 {
		t.Fatalf("%d jobs after restart + duplicate submission, want 1", got)
	}
}
