package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enhancedbhpo/internal/serve/journal"
	"enhancedbhpo/internal/serve/shipper"
)

// TestReplayFromShippedMatchesLocal is the journal-shipping contract:
// after a job runs on a node whose shipper replicates synchronously, the
// shipped copy must be a byte-for-byte replica of the node's own data
// dir — journal and trace segments, the trace log's rotated ones sealed at
// the sink — and journal.Replay over the
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
	ship := shipper.NewMulti(dataDir, []shipper.Sink{sink}, shipper.Options{Sync: true})
	m, err := NewManagerFromJournal(Config{
		PoolSize: 2, MaxJobs: 2, DataDir: dataDir, NodeName: "a", Shipper: ship,
		TraceMaxBytes: 1 << 10, // the job's trace outgrows a segment: one is sealed
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := m.SubmitToken(JobSpec{
		Dataset: "australian", Scale: 0.06, Method: "sha",
		NumHPs: 2, MaxConfigs: 6, Iters: 2, Seed: 3,
	}, "")
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

// TestSinkHoldsEachRecordOnce: six lives of a node shipping synchronously,
// twenty jobs each, leave its sink the node's own journal bytes — every
// record once, none of an earlier life shipped again — and a manifest of
// one line per sealed file, though every boot re-seals every file on disk.
func TestSinkHoldsEachRecordOnce(t *testing.T) {
	dataDir, sinkDir := t.TempDir(), filepath.Join(t.TempDir(), "a")
	for life := 1; life <= 6; life++ {
		sink, err := shipper.NewDirSink(sinkDir)
		if err != nil {
			t.Fatal(err)
		}
		ship := shipper.NewMulti(dataDir, []shipper.Sink{sink}, shipper.Options{Sync: true})
		m := bootJournaled(t, Config{PoolSize: 2, MaxJobs: 2, MaxPending: 32, DataDir: dataDir, NodeName: "a", Shipper: ship})
		var ids []string
		for range 20 {
			job, err := m.SubmitToken(smallSpec(), "")
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, job.ID)
		}
		for _, id := range ids {
			waitJob(t, m, id, func(s Status) bool { return s == StatusDone }, "done")
		}
		shutdown(t, m)
		if err := ship.Close(); err != nil {
			t.Fatal(err)
		}
	}
	journalBytes := func(dir string) (n int64) {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if info, err := e.Info(); err == nil && (strings.HasPrefix(e.Name(), "journal-") || strings.HasPrefix(e.Name(), "base-")) {
				n += info.Size()
			}
		}
		return n
	}
	if node, sink := journalBytes(dataDir), journalBytes(sinkDir); node == 0 || sink != node {
		t.Errorf("the sink holds %d bytes of journal for the node's %d", sink, node)
	}
	manifest, err := shipper.ReadManifest(sinkDir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(sinkDir, shipper.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	sealed := 0
	filepath.WalkDir(sinkDir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !strings.HasSuffix(path, ".part") && d.Name() != shipper.ManifestName {
			sealed++
		}
		return err
	})
	if lines := bytes.Count(raw, []byte("\n")); lines != len(manifest) || sealed != len(manifest) || sealed < 10 {
		t.Errorf("the manifest holds %d lines naming %d files; the sink holds %d sealed files, want one line for each, five lives' journal and trace segments",
			lines, len(manifest), sealed)
	}
}
