package shipper

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/serve/tracestore"
	"enhancedbhpo/internal/trace"
)

// BenchmarkFinishedJobReplicated is the inner loop of a warm job's
// telemetry: 18 events and the terminal one through the trace store, its
// replication hook and a shipper into a directory sink, wired as the
// manager wires them. One operation is one finished job; the final flush
// is inside the clock, so every byte is at the sink when it stops. async
// is bhpod's default (each change kicks the lane's loop), sync is
// -ship-sync (each append is at the sink before it returns).
//
//	go test -run '^$' -bench FinishedJobReplicated -benchmem ./internal/serve/shipper/
func BenchmarkFinishedJobReplicated(b *testing.B) {
	for _, mode := range []struct {
		name string
		sync bool
	}{{"async", false}, {"sync", true}} {
		b.Run(mode.name, func(b *testing.B) {
			root := b.TempDir()
			sink, err := NewDirSink(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			ship := New(root, sink, Options{Sync: mode.sync})
			store, err := tracestore.Open(filepath.Join(root, "traces"), tracestore.Options{
				OnChange: func(name string, final bool) {
					if final {
						ship.Sealed("traces/" + name)
					} else {
						ship.Changed("traces/" + name)
					}
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			at := time.Unix(1700000000, 0).UTC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := fmt.Sprintf("job-%d", i+1)
				for seq := 1; seq <= 19; seq++ {
					ev := events.Event{Seq: uint64(seq), Type: events.TypeCurvePoint, Time: at, JobID: id,
						Point: &trace.Point{Evaluations: seq, CumBudget: 27 * seq, CumTime: time.Duration(seq) * time.Millisecond, BestScore: 0.8125}}
					if seq == 19 {
						ev = events.Event{Seq: 19, Type: events.TypeStatus, Time: at, JobID: id, Status: "done", Terminal: true}
					}
					if err := store.Append(ev); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := ship.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
