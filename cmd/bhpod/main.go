// Command bhpod is the HPO job service: a long-running HTTP daemon that
// accepts hyperparameter-optimization job submissions, runs them on a
// shared bounded worker pool with a per-dataset evaluation cache, and
// reports live anytime curves while jobs are in flight.
//
// With -data-dir set the daemon is crash-safe: job specs and terminal
// results are journaled to an append-only JSONL log, and a restarted
// daemon rebuilds its job table from the journal — finished jobs keep
// their results and anytime curves, jobs that were mid-run come back as
// cancelled with reason "interrupted", and jobs that were still queued
// are re-enqueued and run again.
//
// The daemon also governs its own resources under load: submissions
// beyond -max-pending queued jobs are shed with 429 + Retry-After
// (priced from the observed evaluation latency), an evaluation running
// past -eval-timeout is abandoned so it cannot hold a pool slot forever,
// the journal rotates and re-compacts online once its active segment
// passes -journal-max-bytes, and dataset scopes idle longer than
// -scope-ttl release their memory (rebuilt deterministically on next
// use).
//
// Every job also streams its telemetry live: curve points, rung
// promotions, retries, deadline abandonments, failure-budget charges and
// lifecycle transitions are published to GET /jobs/{id}/events as
// Server-Sent Events (resumable via Last-Event-ID), and — with -data-dir
// set — recorded durably to a per-job trace file so GET /jobs/{id}/trace
// serves the full anytime curve even after a crash and restart. `bhpo
// watch <job-url>` is the terminal client for the feed.
//
// As a cluster member the daemon can ship its journal segments and trace
// files to replica sinks while it runs (-ship-to, repeatable: each a
// directory or a peer node's /ship receiver, every sink tracking its own
// resumable offsets), receive peers' replicas (-ship-recv-dir), and
// start as a *replacement* for a dead node by restoring a shipped
// replica into its data directory (-restore-from, repeatable: the first
// replica whose manifest checksums verify wins) before replaying it —
// mid-run jobs come back as interrupted, trace sequence numbers
// continue, and the coordinator (bhpoctl) re-points the dead node's name
// at the new address.
//
// With -standby the daemon instead boots as a blank spare: it answers
// /healthz with {"status":"standby"} and waits for a coordinator's
// POST /restore, at which point it restores the named dead node's
// replica under -data-dir, becomes that node (same flags as a normal
// worker, shipping included), and starts serving its jobs — the
// automated half of bhpoctl's -auto-failover.
//
// Usage:
//
//	bhpod [-addr :8149] [-workers N] [-max-jobs 4] [-max-pending 64]
//	      [-cache-entries 65536] [-data-dir DIR] [-drain-timeout 30s]
//	      [-eval-attempts 2] [-retry-backoff 50ms] [-failure-budget 3]
//	      [-eval-timeout 0] [-journal-max-bytes 4194304] [-scope-ttl 0]
//	      [-event-buffer 256] [-trace-max-bytes 1048576]
//	      [-kernel-workers 0] [-pprof]
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
//	GET    /healthz            health probe ("ok", "overloaded" or "draining")
//	GET    /metrics            service counters
//	POST   /ship/{node}/...    peer journal-shipping receiver (only with
//	                           -ship-recv-dir)
//	POST   /restore            standby promotion (only with -standby):
//	                           restore a dead node's replica and become it
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
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
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
	var shipTo, restoreFrom stringList
	var (
		addr     = flag.String("addr", ":8149", "listen address")
		workers  = flag.Int("workers", runtime.NumCPU(), "shared evaluation pool size across all jobs")
		maxJobs  = flag.Int("max-jobs", 4, "max concurrently running jobs (excess stay queued)")
		maxPend  = flag.Int("max-pending", 64, "max queued jobs before POST /jobs sheds load with 429 + Retry-After")
		evalTmo  = flag.Duration("eval-timeout", 0, "abandon an evaluation running longer than this, freeing its pool slot (0 = no deadline)")
		cacheN   = flag.Int("cache-entries", 1<<16, "evaluation cache entries per dataset scope (LRU)")
		dataDir  = flag.String("data-dir", "", "journal directory for crash-safe job persistence (empty = in-memory only)")
		jrnlMax  = flag.Int64("journal-max-bytes", 4<<20, "rotate + re-compact the journal once its active segment passes this size (negative = never)")
		scopeTTL = flag.Duration("scope-ttl", 0, "release an idle dataset scope's memory after this long unused; rebuilt on next use (0 = keep forever)")
		drainTmo = flag.Duration("drain-timeout", 30*time.Second, "how long in-flight jobs may finish after SIGTERM before being cancelled")
		attempts = flag.Int("eval-attempts", 2, "total tries per evaluation before it counts as a failure")
		backoff  = flag.Duration("retry-backoff", 50*time.Millisecond, "base (jittered) delay between evaluation retries")
		failures = flag.Int("failure-budget", 3, "evaluation failures a job absorbs before it is failed")
		eventBuf = flag.Int("event-buffer", 256, "buffered events per SSE subscriber; a slower consumer has events dropped from its stream (resumable via Last-Event-ID)")
		traceMax = flag.Int64("trace-max-bytes", 1<<20, "compact a job's durable trace file once it grows this much past its last compaction (negative = never; needs -data-dir)")
		kernelW  = flag.Int("kernel-workers", 0, "matmul goroutines per pooled evaluation (0 = NumCPU/workers, so the pool never oversubscribes)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ for live profiling")

		tenantW     = flag.String("tenant-weights", "", "per-tenant fair-share weights as name=weight pairs, comma-separated (e.g. gold=3,free=1); unlisted tenants get -tenant-default-weight")
		tenantDefW  = flag.Int("tenant-default-weight", 1, "fair-share weight of tenants not named in -tenant-weights")
		tenantQuota = flag.Int("tenant-quota", 0, "max queued jobs per tenant before its submissions shed with 429 (0 = no per-tenant quota)")
		maxPreempts = flag.Int("max-preempts", 8, "max rung-boundary preemptions a single job absorbs before it runs to completion unpreempted (negative = preemption off)")

		nodeName = flag.String("node", "", "cluster node name (ring identity under a bhpoctl coordinator; required with -ship-to)")
		shipIntv = flag.Duration("ship-interval", 250*time.Millisecond, "background ship pass interval")
		shipSync = flag.Bool("ship-sync", false, "ship synchronously: every journal append reaches every sink before the write returns (a kill -9 loses no acknowledged job)")
		shipRecv = flag.String("ship-recv-dir", "", "accept peers' shipped replicas under /ship/, stored in this directory")
		standby  = flag.Bool("standby", false, "boot as a blank spare: wait for a coordinator's POST /restore, then become the restored node")
	)
	flag.Var(&shipTo, "ship-to", "replicate the journal + traces to this sink: a directory, or a peer node's URL (its /ship receiver); repeatable for N-way replication; needs -data-dir and -node")
	flag.Var(&restoreFrom, "restore-from", "before starting, restore a shipped replica (a sink's node directory) into -data-dir; repeatable — the first replica whose manifest verifies wins")
	flag.Parse()
	weights, err := parseTenantWeights(*tenantW)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bhpod: -tenant-weights:", err)
		os.Exit(2)
	}
	if *maxPreempts == 0 {
		// Flag semantics: 0 and negative both mean "never preempt" (the
		// config's zero value would select the default of 8).
		*maxPreempts = -1
	}
	cfg := serve.Config{
		PoolSize:            *workers,
		MaxJobs:             *maxJobs,
		MaxPending:          *maxPend,
		TenantWeights:       weights,
		TenantDefaultWeight: *tenantDefW,
		TenantQuota:         *tenantQuota,
		MaxPreempts:         *maxPreempts,
		EvalTimeout:         *evalTmo,
		CacheEntries:        *cacheN,
		DataDir:             *dataDir,
		JournalMaxBytes:     *jrnlMax,
		ScopeTTL:            *scopeTTL,
		EvalAttempts:        *attempts,
		RetryBackoff:        *backoff,
		FailureBudget:       *failures,
		EventBuffer:         *eventBuf,
		TraceMaxBytes:       *traceMax,
		KernelWorkers:       *kernelW,
		NodeName:            *nodeName,
	}
	cluster := clusterFlags{
		ShipTo:       shipTo,
		ShipInterval: *shipIntv,
		ShipSync:     *shipSync,
		ShipRecvDir:  *shipRecv,
		RestoreFrom:  restoreFrom,
	}
	if *standby {
		err = runStandby(*addr, cfg, cluster, *drainTmo)
	} else {
		err = run(*addr, cfg, cluster, *drainTmo, *pprofOn)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bhpod:", err)
		os.Exit(1)
	}
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

// clusterFlags carries the journal-shipping and failover options.
type clusterFlags struct {
	ShipTo       []string
	ShipInterval time.Duration
	ShipSync     bool
	ShipRecvDir  string
	RestoreFrom  []string
}

// newShipper builds one lane per -ship-to sink: an http(s) URL pushes to
// a peer's /ship receiver; anything else is a local directory, with the
// node name appended so several nodes can share one sink root. Each sink
// keeps its own resumable offsets, so one lagging or down sink never
// holds the others back.
func newShipper(dataDir, node string, fl clusterFlags) (*shipper.Shipper, error) {
	if dataDir == "" {
		return nil, errors.New("-ship-to needs -data-dir")
	}
	if node == "" {
		return nil, errors.New("-ship-to needs -node")
	}
	sinks := make([]shipper.Sink, 0, len(fl.ShipTo))
	for _, dest := range fl.ShipTo {
		if strings.HasPrefix(dest, "http://") || strings.HasPrefix(dest, "https://") {
			base := strings.TrimSuffix(dest, "/")
			if !strings.HasSuffix(base, "/ship") {
				base += "/ship"
			}
			s, err := shipper.NewHTTPSink(base, node, nil)
			if err != nil {
				return nil, err
			}
			sinks = append(sinks, s)
		} else {
			s, err := shipper.NewDirSink(filepath.Join(dest, node))
			if err != nil {
				return nil, err
			}
			sinks = append(sinks, s)
		}
	}
	return shipper.NewMulti(dataDir, sinks, shipper.Options{
		Interval: fl.ShipInterval,
		Sync:     fl.ShipSync,
		OnError:  func(err error) { log.Printf("bhpod: ship: %v", err) },
	}), nil
}

func run(addr string, cfg serve.Config, cluster clusterFlags, drainTimeout time.Duration, pprofOn bool) error {
	if len(cluster.RestoreFrom) > 0 {
		if cfg.DataDir == "" {
			return errors.New("-restore-from needs -data-dir")
		}
		if len(cluster.RestoreFrom) == 1 {
			// Single replica: restore in place (tolerates an existing,
			// possibly pre-created, data dir) — the original replacement path.
			if err := shipper.Restore(cluster.RestoreFrom[0], cfg.DataDir); err != nil {
				return fmt.Errorf("restoring replica: %w", err)
			}
			log.Printf("bhpod: restored shipped replica %s into %s", cluster.RestoreFrom[0], cfg.DataDir)
		} else {
			// Several replicas: the first whose manifest checksums verify
			// wins; a corrupt sink falls through to the next.
			src, err := shipper.RestoreAny(cluster.RestoreFrom, cfg.DataDir)
			if err != nil {
				return fmt.Errorf("restoring replica: %w", err)
			}
			log.Printf("bhpod: restored shipped replica %s into %s (of %d candidates)",
				src, cfg.DataDir, len(cluster.RestoreFrom))
		}
	}
	var ship *shipper.Shipper
	if len(cluster.ShipTo) > 0 {
		var err error
		ship, err = newShipper(cfg.DataDir, cfg.NodeName, cluster)
		if err != nil {
			return err
		}
		defer ship.Close()
		cfg.Shipper = ship
		mode := "async"
		if cluster.ShipSync {
			mode = "sync"
		}
		log.Printf("bhpod: shipping journal + traces to %s (%s)", strings.Join(cluster.ShipTo, ", "), mode)
	}
	var manager *serve.Manager
	var err error
	if cfg.DataDir != "" {
		manager, err = serve.NewManagerFromJournal(cfg)
		if err != nil {
			return fmt.Errorf("recovering journal: %w", err)
		}
		log.Printf("bhpod: journal at %s recovered (%d jobs)", cfg.DataDir, len(manager.Jobs()))
	} else {
		manager = serve.NewManager(cfg)
	}
	handler := serve.NewServer(manager)
	// The service handler stays addressable (SetDraining below), so the
	// optional pprof and /ship endpoints go on a wrapper mux that falls
	// through to it for everything else.
	var root http.Handler = handler
	if pprofOn || cluster.ShipRecvDir != "" {
		mux := http.NewServeMux()
		if pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			log.Printf("bhpod: pprof mounted at /debug/pprof/")
		}
		if cluster.ShipRecvDir != "" {
			recv, err := shipper.NewReceiver(cluster.ShipRecvDir)
			if err != nil {
				return err
			}
			mux.Handle("/ship/", http.StripPrefix("/ship", recv))
			log.Printf("bhpod: receiving peer replicas under /ship/ into %s", cluster.ShipRecvDir)
		}
		mux.Handle("/", handler)
		root = mux
	}
	srv := &http.Server{
		Addr:    addr,
		Handler: root,
	}

	errc := make(chan error, 1)
	go func() {
		kernel := mat.ActiveKernel().String()
		if feats := mat.CPUFeatures(); feats != "" {
			kernel += " [" + feats + "]"
		}
		log.Printf("bhpod listening on %s (pool=%d, max-jobs=%d, kernel=%s)",
			addr, cfg.PoolSize, cfg.MaxJobs, kernel)
		errc <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		log.Printf("bhpod: %v, draining (timeout %s)", sig, drainTimeout)
	}

	// Graceful drain: refuse new submissions, let in-flight evaluations
	// finish within the drain timeout, then cancel whatever remains with
	// reason "shutdown". Every terminal record is journaled before exit.
	handler.SetDraining(true)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainTimeout)
	defer cancelDrain()
	if err := manager.Drain(drainCtx); err != nil {
		log.Printf("bhpod: drain timeout, cancelling remaining jobs")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := manager.Shutdown(ctx); err != nil {
		return fmt.Errorf("waiting for jobs: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// runStandby boots the daemon as a blank spare. It serves only /healthz
// ({"status":"standby"}) until a coordinator POSTs /restore naming a
// dead node and its verified replica directories; then it restores the
// replica under -data-dir/<node>, builds a full worker over the restored
// journal (shipping to the same -ship-to sinks, so the promoted node's
// history stays replicated), and atomically swaps it in — from that
// point it IS the node, same endpoints, same drain behavior.
func runStandby(addr string, cfg serve.Config, cluster clusterFlags, drainTimeout time.Duration) error {
	if cfg.DataDir == "" {
		return errors.New("-standby needs -data-dir")
	}
	// Set only after a successful promotion; read at shutdown to drain
	// whatever the standby became.
	var (
		mu      sync.Mutex
		manager *serve.Manager
		handler *serve.Server
		ship    *shipper.Shipper
	)
	sb := serve.NewStandby(serve.StandbyOptions{
		DataDir: cfg.DataDir,
		Activate: func(node, dataDir string) (http.Handler, error) {
			nodeCfg := cfg
			nodeCfg.DataDir = dataDir
			nodeCfg.NodeName = node
			var sh *shipper.Shipper
			if len(cluster.ShipTo) > 0 {
				var err error
				sh, err = newShipper(dataDir, node, cluster)
				if err != nil {
					return nil, err
				}
				nodeCfg.Shipper = sh
			}
			m, err := serve.NewManagerFromJournal(nodeCfg)
			if err != nil {
				if sh != nil {
					sh.Close()
				}
				return nil, fmt.Errorf("recovering restored journal: %w", err)
			}
			h := serve.NewServer(m)
			mu.Lock()
			manager, handler, ship = m, h, sh
			mu.Unlock()
			log.Printf("bhpod: standby promoted to node %s (%d jobs recovered)", node, len(m.Jobs()))
			return h, nil
		},
	})
	srv := &http.Server{Addr: addr, Handler: sb}
	errc := make(chan error, 1)
	go func() {
		log.Printf("bhpod standing by on %s (data dir %s)", addr, cfg.DataDir)
		errc <- srv.ListenAndServe()
	}()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		log.Printf("bhpod: %v, shutting down standby (node %q)", sig, sb.Active())
	}
	mu.Lock()
	m, h, sh := manager, handler, ship
	mu.Unlock()
	if h != nil {
		h.SetDraining(true)
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainTimeout)
		defer cancelDrain()
		if err := m.Drain(drainCtx); err != nil {
			log.Printf("bhpod: drain timeout, cancelling remaining jobs")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if m != nil {
		if err := m.Shutdown(ctx); err != nil {
			return fmt.Errorf("waiting for jobs: %w", err)
		}
	}
	if sh != nil {
		sh.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
