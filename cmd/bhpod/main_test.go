package main

import (
	"context"
	"io"
	"maps"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"enhancedbhpo/internal/serve"
	"enhancedbhpo/internal/serve/journal"
)

// TestRunServesDrainsAndJournals boots the daemon's one run sequence on a
// loopback listener, submits a job and stops it the way a SIGTERM does —
// by cancelling run's context — while the job is still in flight. The
// drain must let the job finish, and the journal must hold its terminal
// record by the time run returns.
func TestRunServesDrainsAndJournals(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, func() (net.Listener, error) { return ln, nil }, serve.NodeOptions{
			Config: serve.Config{PoolSize: 2, MaxJobs: 2, DataDir: dataDir},
		}, 60*time.Second)
	}()

	// The listener is already open, so the request waits for run to serve it.
	resp, err := http.Post("http://"+ln.Addr().String()+"/jobs", "application/json", strings.NewReader(
		`{"dataset":"australian","scale":0.06,"method":"sha","hps":2,"max_configs":6,"iters":2,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}

	states, err := journal.Replay(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || !states[0].Terminal() || states[0].Status != string(serve.StatusDone) || states[0].Evaluations == 0 {
		t.Fatalf("journal after a drained stop: %+v", states)
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("the listener is still open after run returned")
	}
}

// TestParseFlags: the documented defaults land in the node's options, a
// bad -tenant-weights is refused, and so are the retry flags, which the
// daemon no longer has: a failed evaluation is not retried. So is
// -journal-max-bytes: records share the log -trace-max-bytes sizes.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // empty: the args parse
		check   func(serve.NodeOptions) bool
	}{
		{"defaults", nil, "", func(o serve.NodeOptions) bool {
			c := o.Config
			return c.MaxJobs == 4 && c.MaxPending == 64 && c.FailureBudget == 3 &&
				c.TraceMaxBytes == 1<<20 && o.Ship.Interval == 250*time.Millisecond &&
				c.TenantWeights == nil && c.EvalTimeout == 0 && !o.Standby
		}},
		{"tenant-weights", []string{"-tenant-weights", "gold=3,free=1"}, "", func(o serve.NodeOptions) bool {
			return maps.Equal(o.Config.TenantWeights, map[string]int{"gold": 3, "free": 1})
		}},
		{"bad-tenant-weights", []string{"-tenant-weights", "gold=0"}, `bad weight "0"`, nil},
		{"eval-attempts", []string{"-eval-attempts", "2"}, "flag provided but not defined: -eval-attempts", nil},
		{"retry-backoff", []string{"-retry-backoff", "50ms"}, "flag provided but not defined: -retry-backoff", nil},
		{"journal-max-bytes", []string{"-journal-max-bytes", "4096"}, "flag provided but not defined: -journal-max-bytes", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, drain, opts, err := parseFlags(tc.args, io.Discard)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseFlags(%q) = %v, want an error holding %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseFlags(%q): %v", tc.args, err)
			}
			if addr != ":8149" || drain != 30*time.Second || !tc.check(opts) {
				t.Errorf("parseFlags(%q) = %q, %v, %+v", tc.args, addr, drain, opts)
			}
		})
	}
}
