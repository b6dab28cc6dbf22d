package hpo

import (
	"context"
	"testing"
)

// TestSHAParallelMatchesSerial verifies the determinism contract of the
// Workers option: per-trial RNG streams are derived from (round, index),
// so any worker count must produce identical trials and the same winner.
func TestSHAParallelMatchesSerial(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}
	configs := space.Enumerate()
	serial, err := SuccessiveHalving(context.Background(), configs, ev, vanComps(), SHAOptions{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		parallel, err := SuccessiveHalving(context.Background(), configs, ev, vanComps(), SHAOptions{Seed: 1, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if parallel.Best.ID() != serial.Best.ID() {
			t.Fatalf("workers=%d picked %s, serial picked %s", workers, parallel.Best.ID(), serial.Best.ID())
		}
		if len(parallel.Trials) != len(serial.Trials) {
			t.Fatalf("workers=%d ran %d trials, serial %d", workers, len(parallel.Trials), len(serial.Trials))
		}
		for i := range serial.Trials {
			st, pt := serial.Trials[i], parallel.Trials[i]
			if st.Config.ID() != pt.Config.ID() || st.Score != pt.Score || st.Budget != pt.Budget {
				t.Fatalf("workers=%d trial %d diverged: %+v vs %+v", workers, i, st, pt)
			}
		}
	}
}

// The fakeEvaluator must be safe for the concurrent calls the Workers
// option makes; it is stateless apart from the RNG passed in, so this test
// just exercises the pool under the race detector.
func TestSHAParallelRace(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 800, quality: quality, noise: 0.01}
	if _, err := SuccessiveHalving(context.Background(), space.Enumerate(), ev, vanComps(), SHAOptions{Seed: 2, Workers: 6}); err != nil {
		t.Fatal(err)
	}
}
