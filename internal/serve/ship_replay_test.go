package serve

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"enhancedbhpo/internal/serve/shipper"
)

// TestSinkHoldsEachRecordOnce: six lives of a node shipping synchronously,
// twenty jobs each, leave its sink the node's own log bytes — every record
// once, none of an earlier life shipped again — and a manifest of one line
// per sealed file, though every boot re-seals every file on disk.
func TestSinkHoldsEachRecordOnce(t *testing.T) {
	dataDir, sinkDir := t.TempDir(), filepath.Join(t.TempDir(), "a")
	for life := 1; life <= 6; life++ {
		sink, err := shipper.NewDirSink(sinkDir)
		if err != nil {
			t.Fatal(err)
		}
		ship := shipper.NewMulti(dataDir, []shipper.Sink{sink}, shipper.Options{Sync: true})
		m := bootJournaled(t, Config{PoolSize: 2, MaxJobs: 2, MaxPending: 32, DataDir: dataDir, NodeName: "a", Shipper: ship})
		for i := range 20 {
			submitAs(t, m, smallSpec(), fmt.Sprintf("job-%d", 20*(life-1)+i+1))
		}
		for i := range 20 {
			waitJob(t, m, fmt.Sprintf("job-%d", 20*(life-1)+i+1), func(s Status) bool { return s == StatusDone }, "done")
		}
		shutdown(t, m)
		if err := ship.Close(); err != nil {
			t.Fatal(err)
		}
	}
	logBytes := func(dir string) (n int64) {
		entries, _ := os.ReadDir(TraceDir(dir))
		for _, e := range entries {
			if info, err := e.Info(); err == nil && strings.HasPrefix(e.Name(), "trace-") {
				n += info.Size()
			}
		}
		return n
	}
	if node, sink := logBytes(dataDir), logBytes(sinkDir); node == 0 || sink != node {
		t.Errorf("the sink holds %d bytes of log for the node's %d", sink, node)
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
	if lines := bytes.Count(raw, []byte("\n")); lines != len(manifest) || sealed != len(manifest) || sealed < 5 {
		t.Errorf("the manifest holds %d lines naming %d files; the sink holds %d sealed files, want one line for each, five lives' segments",
			lines, len(manifest), sealed)
	}
}
