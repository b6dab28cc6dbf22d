package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"enhancedbhpo/internal/serve/journal"
	"enhancedbhpo/internal/serve/shipper"
)

// TestReplayFromShippedMatchesLocal is the journal-shipping contract:
// after a job runs on a node whose shipper replicates synchronously, the
// shipped copy must be a byte-for-byte replica of the node's own data
// dir — journal segments, bases and traces — and journal.Replay over the
// restored copy must reconstruct the identical job state. This is what
// makes a replacement node's curves and SSE sequences indistinguishable
// from the dead node's.
func TestReplayFromShippedMatchesLocal(t *testing.T) {
	dataDir := t.TempDir()
	shipRoot := t.TempDir()
	sink, err := shipper.NewDirSink(filepath.Join(shipRoot, "a"))
	if err != nil {
		t.Fatal(err)
	}
	ship := shipper.New(dataDir, sink, shipper.Options{Sync: true})
	m, err := NewManagerFromJournal(Config{
		PoolSize: 2, MaxJobs: 2, DataDir: dataDir, NodeName: "a", Shipper: ship,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(JobSpec{
		Dataset: "australian", Scale: 0.06, Method: "sha",
		NumHPs: 2, MaxConfigs: 6, Iters: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, job.ID, func(s Status) bool { return s == StatusDone }, "done")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ship.Close(); err != nil {
		t.Fatal(err)
	}
	if st := ship.Stats(); st.SegmentsShipped == 0 || st.Bytes == 0 {
		t.Fatalf("nothing shipped: %+v", st)
	}

	restored := t.TempDir()
	if _, err := shipper.Restore([]string{filepath.Join(shipRoot, "a")}, restored); err != nil {
		t.Fatal(err)
	}

	// Byte-for-byte: every file under the node's data dir must exist in
	// the restored replica with identical content.
	files := 0
	err = filepath.WalkDir(dataDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dataDir, path)
		local, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		shipped, err := os.ReadFile(filepath.Join(restored, rel))
		if err != nil {
			t.Fatalf("file %s missing from restored replica: %v", rel, err)
		}
		if !bytes.Equal(local, shipped) {
			t.Fatalf("file %s differs: local %d bytes, restored %d bytes", rel, len(local), len(shipped))
		}
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("data dir is empty; the test exercised nothing")
	}

	// Replay equivalence: both dirs reconstruct the same job states.
	localStates, err := journal.Replay(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	shippedStates, err := journal.Replay(restored)
	if err != nil {
		t.Fatal(err)
	}
	lj, _ := json.Marshal(localStates)
	sj, _ := json.Marshal(shippedStates)
	if !bytes.Equal(lj, sj) {
		t.Fatalf("replayed states differ:\nlocal:   %s\nshipped: %s", lj, sj)
	}
	if len(localStates) != 1 || localStates[0].Evaluations == 0 || localStates[0].Budget == 0 {
		t.Fatalf("replay shape unexpected: %d states", len(localStates))
	}
}
