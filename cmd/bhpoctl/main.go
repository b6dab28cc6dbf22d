// Command bhpoctl is the bhpod cluster coordinator: it serves the same
// HTTP API as a single daemon — POST /jobs, GET /jobs/{id}, DELETE,
// the SSE event feed, /methods, /metrics, /healthz — over a set of
// worker nodes, so clients (curl, bhpo watch) talk to one address and
// the cluster looks like one big bhpod.
//
// Jobs route by consistent hash on their evaluation-cache scope (the
// dataset/scale/seed/folds fingerprint), so jobs that share synthesized
// data and cached fold scores land on the same node and stay warm. Job
// IDs come back node-qualified ("a:job-3") and every per-job route is
// resolved from the ID, independent of the ring. A submission whose
// routed node dies before acking retries transparently on the ring
// successor under a coordinator-minted idempotency token.
//
// The coordinator heartbeats each node's /healthz once a second
// (EWMA-smoothed RTT) and distinguishes degraded (2 missed probes) from
// dead (6): a degraded node stops receiving new jobs but keeps its
// existing ones. The pacing, the thresholds and the ring's 64 virtual
// nodes per worker are constants, not flags (see DESIGN.md).
// Given the shipped-replica roots (-sink-root), a dead node heals
// itself: the coordinator verifies the node's replicas there, restores
// one onto a registered standby (-standby, or `bhpoctl standby`), and
// re-points the ring identity — no operator in the loop. Membership
// (runtime joins, leaves, standbys, automated replaces) persists in a
// crash-safe journal under -data-dir, so a restarted coordinator
// recovers the current ring, not the boot-time one.
//
// Usage:
//
//	bhpoctl [-addr :8150] -node a=http://h1:8149 -node b=http://h2:8149 ...
//	        [-standby s1=http://h9:8149]... [-sink-root /mnt/ship]...
//	        [-data-dir /var/lib/bhpoctl]
//	bhpoctl status  [-addr http://localhost:8150]
//	bhpoctl tenants [-addr http://localhost:8150]
//	bhpoctl join    [-addr ...] -node c -url http://h3:8149
//	bhpoctl drain   [-addr ...] -node c
//	bhpoctl leave   [-addr ...] -node c [-deadline 30s]
//	bhpoctl standby [-addr ...] -node s1 -url http://h9:8149 [-remove]
//	bhpoctl replace [-addr ...] -node a -url http://h3:8149
//
// Extra endpoints beyond the worker API:
//
//	GET  /cluster          per-node state (alive|degraded|dead|draining|
//	                       standby|restoring), health, EWMA RTT, failure
//	                       streak, last-probe time
//	GET  /cluster/events   bounded incident log (joins, leaves, failovers,
//	                       restore failures)
//	POST /cluster/join     {"node","url"} — enter the ring live
//	POST /cluster/leave    {"node","deadline_sec"} — drain, wait, remove
//	POST /cluster/drain    {"node"} — stop routing new jobs
//	POST /cluster/standby  {"node","url","remove"} — manage the spare pool
//	POST /cluster/replace  {"node","url"} — point a ring identity at a
//	                       replacement machine (the manual path)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"enhancedbhpo/internal/coord"
	"enhancedbhpo/internal/serve"
)

// nodeFlags collects repeated -node name=url flags.
type nodeFlags []coord.Node

func (n *nodeFlags) String() string {
	parts := make([]string, 0, len(*n))
	for _, nd := range *n {
		parts = append(parts, nd.Name+"="+nd.URL)
	}
	return strings.Join(parts, ",")
}

func (n *nodeFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*n = append(*n, coord.Node{Name: name, URL: url})
	return nil
}

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
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "status":
			os.Exit(statusMain(os.Args[2:], os.Stdout))
		case "tenants":
			os.Exit(tenantsMain(os.Args[2:], os.Stdout))
		case "replace":
			os.Exit(memberMain("replace", os.Args[2:], os.Stdout))
		case "join":
			os.Exit(memberMain("join", os.Args[2:], os.Stdout))
		case "drain":
			os.Exit(memberMain("drain", os.Args[2:], os.Stdout))
		case "leave":
			os.Exit(memberMain("leave", os.Args[2:], os.Stdout))
		case "standby":
			os.Exit(memberMain("standby", os.Args[2:], os.Stdout))
		}
	}
	var nodes, standbys nodeFlags
	var sinkRoots stringList
	var (
		addr    = flag.String("addr", ":8150", "listen address")
		dataDir = flag.String("data-dir", "", "directory for the crash-safe membership journal (empty = membership not persisted)")
	)
	flag.Var(&nodes, "node", "worker as name=url (repeatable)")
	flag.Var(&standbys, "standby", "standby node as name=url (repeatable); spares for automated failover")
	flag.Var(&sinkRoots, "sink-root", "shipped-replica root holding one subdirectory per node (repeatable); restores dead nodes onto standbys automatically")
	flag.Parse()
	if len(nodes) == 0 {
		fmt.Fprintln(os.Stderr, "bhpoctl: at least one -node name=url is required")
		os.Exit(2)
	}
	cfg := coord.Config{
		Nodes:     nodes,
		Standbys:  standbys,
		DataDir:   *dataDir,
		SinkRoots: sinkRoots,
	}
	if err := run(*addr, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bhpoctl:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg coord.Config) error {
	c, err := coord.New(cfg)
	if err != nil {
		return err
	}
	c.Start()
	defer c.Shutdown()
	srv := &http.Server{Addr: addr, Handler: c}
	errc := make(chan error, 1)
	go func() {
		log.Printf("bhpoctl coordinating %d nodes on %s", len(cfg.Nodes), addr)
		errc <- srv.ListenAndServe()
	}()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		log.Printf("bhpoctl: %v, shutting down", sig)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// statusMain implements `bhpoctl status`: render GET /cluster as a
// table. Exit code 0 only when every ring member is alive — standbys
// are spares and do not fail the check — so `bhpoctl status` doubles as
// a health gate in scripts and CI.
func statusMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8150", "coordinator address")
	fs.Parse(args)
	resp, err := http.Get(strings.TrimSuffix(*addr, "/") + "/cluster")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bhpoctl:", err)
		return 1
	}
	defer resp.Body.Close()
	var nodes []coord.NodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		fmt.Fprintln(os.Stderr, "bhpoctl: decoding:", err)
		return 1
	}
	return renderStatus(out, nodes)
}

// renderStatus prints the node table and computes the exit code —
// factored out of statusMain so tests can feed it statuses directly.
func renderStatus(out io.Writer, nodes []coord.NodeStatus) int {
	fmt.Fprintf(out, "%-12s %-10s %-10s %8s %8s %10s  %s\n",
		"NODE", "STATE", "HEALTH", "RTT", "PENDING", "PROBED", "URL")
	exit := 0
	for _, n := range nodes {
		probed := "-"
		if !n.LastProbe.IsZero() {
			probed = fmt.Sprintf("%.1fs ago", time.Since(n.LastProbe).Seconds())
		}
		name := n.Name
		if n.Quarantined {
			name += "!"
		}
		fmt.Fprintf(out, "%-12s %-10s %-10s %7.1fms %8d %10s  %s\n",
			name, n.State, orDash(n.Health), n.RTTMillis, n.Pending, probed, n.URL)
		if n.LastError != "" {
			fmt.Fprintf(out, "%-12s   last error: %s\n", "", n.LastError)
		}
		// Any member not alive (dead, degraded, draining, restoring) makes
		// the check fail; standbys are spares, not members.
		if n.State != coord.StateAlive && n.State != coord.StateStandby {
			exit = 1
		}
	}
	return exit
}

// tenantsMain implements `bhpoctl tenants`: render GET /tenants — the
// coordinator's cluster-wide merge or a single daemon's own view, both
// serve the same shape — as a per-tenant accounting table.
func tenantsMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("tenants", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8150", "coordinator (or daemon) address")
	fs.Parse(args)
	resp, err := http.Get(strings.TrimSuffix(*addr, "/") + "/tenants")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bhpoctl:", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		fmt.Fprintf(os.Stderr, "bhpoctl: %s: %s\n", resp.Status, strings.TrimSpace(string(body)))
		return 1
	}
	var payload struct {
		Tenants []serve.TenantStatus `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		fmt.Fprintln(os.Stderr, "bhpoctl: decoding:", err)
		return 1
	}
	return renderTenants(out, payload.Tenants)
}

// renderTenants prints the per-tenant table — factored out of
// tenantsMain so tests can feed it statuses directly.
func renderTenants(out io.Writer, tenants []serve.TenantStatus) int {
	fmt.Fprintf(out, "%-16s %6s %7s %7s %6s %6s %8s %10s %6s %8s\n",
		"TENANT", "WEIGHT", "QUEUED", "RUNNING", "DONE", "FAIL", "EVALS", "SERVICE", "SHED", "PREEMPTS")
	for _, t := range tenants {
		fmt.Fprintf(out, "%-16s %6d %7d %7d %6d %6d %8d %10.1f %6d %8d\n",
			t.Tenant, t.Weight, t.JobsQueued, t.JobsRunning, t.JobsDone,
			t.JobsFailed+t.JobsCancelled, t.Evaluations, t.ServiceUnits,
			t.Shed, t.Preemptions)
	}
	return 0
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// memberMain implements the membership subcommands (join, leave, drain,
// standby, replace): one POST to the matching /cluster/ endpoint.
func memberMain(cmd string, args []string, out io.Writer) int {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8150", "coordinator address")
	node := fs.String("node", "", "node name")
	url := fs.String("url", "", "node URL (join, standby, replace)")
	deadline := fs.Duration("deadline", 30*time.Second, "leave: how long to wait for running jobs")
	remove := fs.Bool("remove", false, "standby: deregister instead of register")
	fs.Parse(args)
	if *node == "" {
		fmt.Fprintf(os.Stderr, "bhpoctl: %s needs -node\n", cmd)
		return 2
	}
	body := map[string]any{"node": *node}
	switch cmd {
	case "join", "replace":
		if *url == "" {
			fmt.Fprintf(os.Stderr, "bhpoctl: %s needs -url\n", cmd)
			return 2
		}
		body["url"] = *url
	case "standby":
		if *remove {
			body["remove"] = true
		} else if *url == "" {
			fmt.Fprintln(os.Stderr, "bhpoctl: standby needs -url (or -remove)")
			return 2
		} else {
			body["url"] = *url
		}
	case "leave":
		body["deadline_sec"] = deadline.Seconds()
	}
	payload, _ := json.Marshal(body)
	resp, err := http.Post(strings.TrimSuffix(*addr, "/")+"/cluster/"+cmd,
		"application/json", bytes.NewReader(payload))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bhpoctl:", err)
		return 1
	}
	defer resp.Body.Close()
	table, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "bhpoctl: %s: %s\n", resp.Status, strings.TrimSpace(string(table)))
		return 1
	}
	out.Write(table)
	return 0
}
