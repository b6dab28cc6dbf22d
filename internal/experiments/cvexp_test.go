package experiments

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachParallelRunsAll(t *testing.T) {
	var count int64
	err := forEachParallel(100, func(i int) error {
		atomic.AddInt64(&count, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("ran %d of 100", count)
	}
}

func TestForEachParallelPropagatesError(t *testing.T) {
	want := errors.New("boom")
	err := forEachParallel(50, func(i int) error {
		if i == 17 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
}

func TestForEachParallelZero(t *testing.T) {
	if err := forEachParallel(0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTruthCached(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := FastSettings()
	t1, err := s.buildTruth("australian", 99)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.buildTruth("australian", 99)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("identical settings did not hit the truth cache")
	}
	// Different seed misses the cache.
	t3, err := s.buildTruth("australian", 100)
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Fatal("different seed hit the same cache entry")
	}
	// Different MaxIter misses the cache too.
	s2 := s
	s2.MaxIter = s.MaxIter + 1
	t4, err := s2.buildTruth("australian", 99)
	if err != nil {
		t.Fatal(err)
	}
	if t4 == t1 {
		t.Fatal("different MaxIter hit the same cache entry")
	}
}
