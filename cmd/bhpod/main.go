// Command bhpod is the HPO job service: a long-running HTTP daemon that
// accepts hyperparameter-optimization job submissions, runs them on a
// shared bounded worker pool with a per-dataset evaluation cache, and
// reports live anytime curves while jobs are in flight.
//
// With -data-dir set the daemon is crash-safe: job specs and terminal
// results are journaled to an append-only JSONL log, and a restarted
// daemon rebuilds its job table from the journal — finished jobs keep
// their results and anytime curves (the curves read back from the trace
// log), jobs that were mid-run come back as
// cancelled with reason "interrupted", and jobs that were still queued
// are re-enqueued and run again.
//
// The daemon also governs its own resources under load: submissions
// beyond -max-pending queued jobs are shed with 429 + Retry-After
// (priced from the observed evaluation latency), an evaluation running
// past -eval-timeout is abandoned so it cannot hold a pool slot forever,
// the journal seals its active segment and starts the next once it passes
// -journal-max-bytes, and dataset scopes idle longer than
// -scope-ttl release their memory (rebuilt deterministically on next
// use).
//
// Every job also streams its telemetry live: curve points, rung
// promotions, deadline abandonments, failure-budget charges and
// lifecycle transitions are published to GET /jobs/{id}/events as
// Server-Sent Events (resumable via Last-Event-ID), and — with -data-dir
// set — recorded durably to the trace log all jobs share (segments of
// -trace-max-bytes, immutable once sealed) so GET /jobs/{id}/trace serves
// the full event history even after a crash and restart. `bhpo
// watch <job-url>` is the terminal client for the feed.
//
// As a cluster member the daemon can ship its journal and trace
// segments to replica sinks while it runs (-ship-to, repeatable: each a
// directory or a peer node's /ship receiver, every sink tracking its own
// resumable offsets) and receive peers' replicas (-ship-recv-dir).
//
// However a process becomes a node, it does so by one sequence
// (serve.StartNode): restore a replica if any were named, start the
// shipper, rebuild the job table from the journal, serve. It has three
// triggers. A normal boot runs it on -data-dir as it stands. With
// -restore-from (repeatable) the daemon starts as a *replacement* for a
// dead node: the first replica whose manifest checksums hold is restored
// into -data-dir — which may be absent or empty, never a directory that
// already holds a journal — and replayed, so mid-run jobs come back as
// interrupted, trace sequence numbers continue, and the coordinator
// (bhpoctl) re-points the dead node's name at the new address. With
// -standby the daemon boots as the same node not yet activated: it
// answers /healthz with {"status":"standby"} until a coordinator's POST
// /restore names a dead node and its replicas, restores them under
// -data-dir/<node> and becomes that node — same flags as any worker,
// shipping, receiver and pprof included; the automated half of the
// failover a bhpoctl given -sink-root runs. POST /restore is
// idempotent: repeated for the node the daemon already is, it answers
// as it did the first time.
//
// Usage:
//
//	bhpod [-addr :8149] [-workers N] [-max-jobs 4] [-max-pending 64]
//	      [-data-dir DIR] [-drain-timeout 30s] [-failure-budget 3]
//	      [-eval-timeout 0] [-journal-max-bytes 4194304] [-scope-ttl 0]
//	      [-trace-max-bytes 1048576] [-pprof]
//	      [-tenant-weights NAME=W,...] [-tenant-quota 0]
//	      [-node NAME] [-ship-to DIR|URL]... [-ship-interval 250ms]
//	      [-ship-sync] [-ship-recv-dir DIR] [-restore-from DIR]...
//	      [-standby]
//
// Endpoints:
//
//	POST   /jobs               submit a job (JSON spec: dataset, method,
//	                           ...); 429 + Retry-After when overloaded,
//	                           503 draining
//	GET    /jobs               list jobs
//	GET    /jobs/{id}          job status + incumbent curve (?since=N for
//	                           only the curve points past event seq N)
//	GET    /jobs/{id}/events   live job telemetry as SSE (Last-Event-ID
//	                           resume)
//	GET    /jobs/{id}/trace    full anytime curve, durable across restarts
//	                           (?events=1 for the raw event log)
//	DELETE /jobs/{id}          cancel a job (idempotent on finished jobs)
//	GET    /healthz            health probe ("ok", "overloaded", "draining"
//	                           or, not yet promoted, "standby")
//	GET    /metrics            service counters
//	POST   /ship/{node}/...    peer journal-shipping receiver (only with
//	                           -ship-recv-dir)
//	POST   /restore            standby promotion: restore a dead node's
//	                           replica and become it; 200 again for the
//	                           node this already is, 409 for another
//	GET    /debug/pprof/*      live profiling (only with -pprof)
//
// On SIGTERM/SIGINT the daemon drains gracefully: new submissions are
// refused with 503, in-flight evaluations get -drain-timeout to finish,
// every outcome is journaled, and then the process exits.
//
// See the README's "Running the service" section for a curl walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/serve"
	"enhancedbhpo/internal/serve/shipper"
)

// stringList collects a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	if v == "" {
		return errors.New("empty value")
	}
	*s = append(*s, v)
	return nil
}

func main() {
	addr, drainTmo, opts, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error and the usage
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	listen := func() (net.Listener, error) { return net.Listen("tcp", addr) }
	if err = run(ctx, listen, opts, drainTmo); err != nil {
		fmt.Fprintln(os.Stderr, "bhpod:", err)
		os.Exit(1)
	}
}

// parseFlags turns bhpod's command line (args, without the program name)
// into the address to listen on, the drain timeout and the node to run.
// An error, -h included, is printed with the usage to output.
func parseFlags(args []string, output io.Writer) (addr string, drainTmo time.Duration, opts serve.NodeOptions, err error) {
	fs := flag.NewFlagSet("bhpod", flag.ContinueOnError)
	fs.SetOutput(output)
	var shipTo, restoreFrom stringList
	var weights map[string]int
	fs.StringVar(&addr, "addr", ":8149", "listen address")
	fs.DurationVar(&drainTmo, "drain-timeout", 30*time.Second, "how long in-flight jobs may finish after SIGTERM before being cancelled")
	var (
		workers  = fs.Int("workers", runtime.NumCPU(), "cores evaluations may train on, across all jobs: one per evaluation holding a slot, the idle ones lent to running evaluations fold by fold")
		maxJobs  = fs.Int("max-jobs", 4, "max concurrently running jobs (excess stay queued)")
		maxPend  = fs.Int("max-pending", 64, "max queued jobs before POST /jobs sheds load with 429 + Retry-After")
		evalTmo  = fs.Duration("eval-timeout", 0, "abandon an evaluation running longer than this, freeing its pool slot (0 = no deadline)")
		dataDir  = fs.String("data-dir", "", "journal directory for crash-safe job persistence (empty = in-memory only)")
		jrnlMax  = fs.Int64("journal-max-bytes", 4<<20, "seal the journal's active segment and start the next once it passes this size (negative = never)")
		scopeTTL = fs.Duration("scope-ttl", 0, "release an idle dataset scope's memory after this long unused; rebuilt on next use (0 = keep forever)")
		failures = fs.Int("failure-budget", 3, "failed evaluations a job absorbs before it is failed; a failed evaluation is not retried")
		traceMax = fs.Int64("trace-max-bytes", 1<<20, "segment size of the durable trace log: start a new segment once the active one has grown past this (negative = never; needs -data-dir)")
		pprofOn  = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ for live profiling")

		tenantQuota = fs.Int("tenant-quota", 0, "max queued jobs per tenant before its submissions shed with 429 (0 = no per-tenant quota)")

		nodeName = fs.String("node", "", "cluster node name (ring identity under a bhpoctl coordinator; required with -ship-to)")
		shipIntv = fs.Duration("ship-interval", 250*time.Millisecond, "background ship pass interval")
		shipSync = fs.Bool("ship-sync", false, "ship synchronously: every journal append reaches every sink before the write returns (a kill -9 loses no acknowledged job)")
		shipRecv = fs.String("ship-recv-dir", "", "accept peers' shipped replicas under /ship/, stored in this directory")
		standby  = fs.Bool("standby", false, "boot as a blank spare: wait for a coordinator's POST /restore, then become the restored node")
	)
	fs.Func("tenant-weights", "per-tenant fair-share weights as name=weight pairs, comma-separated (e.g. gold=3,free=1); unlisted tenants get weight 1", func(v string) (err error) {
		weights, err = parseTenantWeights(v)
		return err
	})
	fs.Var(&shipTo, "ship-to", "replicate the journal + traces to this sink: a directory, or a peer node's URL (its /ship receiver); repeatable for N-way replication; needs -data-dir and -node")
	fs.Var(&restoreFrom, "restore-from", "before starting, restore a shipped replica (a sink's node directory) into -data-dir; repeatable — the first replica whose manifest verifies wins")
	if err = fs.Parse(args); err != nil {
		return addr, drainTmo, opts, err
	}
	opts = serve.NodeOptions{Config: serve.Config{
		PoolSize:        *workers,
		MaxJobs:         *maxJobs,
		MaxPending:      *maxPend,
		TenantWeights:   weights,
		TenantQuota:     *tenantQuota,
		EvalTimeout:     *evalTmo,
		DataDir:         *dataDir,
		JournalMaxBytes: *jrnlMax,
		ScopeTTL:        *scopeTTL,
		FailureBudget:   *failures,
		TraceMaxBytes:   *traceMax,
		NodeName:        *nodeName,
	},
		ShipTo: shipTo,
		Ship: shipper.Options{
			Interval: *shipIntv,
			Sync:     *shipSync,
			OnError:  func(err error) { log.Printf("bhpod: ship: %v", err) },
		},
		ShipRecvDir: *shipRecv,
		Pprof:       *pprofOn,
		RestoreFrom: restoreFrom,
		Standby:     *standby,
		Logf:        func(format string, args ...any) { log.Printf("bhpod: "+format, args...) },
	}
	return addr, drainTmo, opts, nil
}

// parseTenantWeights parses "name=weight,name=weight" into the serve
// config's weight map. An empty string means no per-tenant overrides.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]int{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad pair %q (want name=weight)", pair)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad weight %q for tenant %q (want integer >= 1)", val, name)
		}
		out[name] = w
	}
	return out, nil
}

// run is the daemon's whole life: become a node (serve.StartNode — blank
// with -standby, from a replica with -restore-from, from -data-dir as it
// is otherwise), then listen, serve until ctx is cancelled, and take
// everything down in reverse. The listener is opened only after the node
// is assembled, so a connection is never accepted before there is a job
// table to answer from.
func run(ctx context.Context, listen func() (net.Listener, error), opts serve.NodeOptions, drainTimeout time.Duration) error {
	node, err := serve.StartNode(opts)
	if err != nil {
		return err
	}
	ln, err := listen()
	if err != nil {
		node.Close(ctx)
		return err
	}
	srv := &http.Server{Handler: node}
	errc := make(chan error, 1)
	go func() {
		state := "listening"
		if opts.Standby {
			state = "standing by"
		}
		log.Printf("bhpod %s on %s (pool=%d, max-jobs=%d, kernel=%s)",
			state, ln.Addr(), opts.Config.PoolSize, opts.Config.MaxJobs, mat.Kernel())
		errc <- srv.Serve(ln)
	}()
	select {
	case err := <-errc:
		node.Close(ctx)
		return err
	case <-ctx.Done():
		log.Printf("bhpod: stopping, draining (timeout %s)", drainTimeout)
	}

	// Graceful drain: refuse new submissions, let in-flight evaluations
	// finish within the drain timeout, then cancel whatever remains with
	// reason "shutdown". Every terminal record is journaled — and shipped —
	// before exit.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainTimeout)
	defer cancelDrain()
	if err := node.Drain(drainCtx); err != nil {
		log.Printf("bhpod: drain timeout, cancelling remaining jobs")
	}
	stopCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// Closed even if connections outlive the timeout: the last state ships.
	err = srv.Shutdown(stopCtx)
	if cerr := node.Close(stopCtx); cerr != nil {
		err = errors.Join(err, fmt.Errorf("waiting for jobs: %w", cerr))
	}
	if err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
