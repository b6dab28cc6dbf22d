package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"enhancedbhpo/internal/serve/shipper"
)

// NodeOptions is what it takes to become a node: the manager's Config
// plus what a bhpod process replicates and serves beside the job API.
type NodeOptions struct {
	// Config configures the manager. Its Shipper is the node's to set,
	// built from ShipTo once name and data directory are known. With
	// Standby, DataDir is the root promotions restore under and NodeName
	// is whatever the promotion says.
	Config Config
	// ShipTo lists the replica sinks: an http(s) URL is a peer's /ship
	// receiver, anything else a directory (the node name is appended, so
	// nodes can share a sink root). Needs a data directory and a name.
	ShipTo []string
	Ship   shipper.Options
	// ShipRecvDir, when set, mounts the peer-push receiver under /ship/.
	ShipRecvDir string
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// RestoreFrom, when non-empty, restores the first usable of these
	// replicas into Config.DataDir before the node activates.
	RestoreFrom []string
	// Standby starts the node blank, waiting for POST /restore.
	Standby bool
	// Logf, when non-nil, receives one line per boot step: bhpod's log.
	// Nil keeps the e2e tests, which boot dozens of nodes, silent.
	Logf func(format string, args ...any)
}

// Node is one bhpod: a manager behind the job API, the shipper replicating
// its data directory, and the routes served beside the API (pprof, the
// /ship/ receiver, POST /restore). It is assembled by one sequence —
// restore a replica (if any were named) → shipper → manager over the
// journal → Server — with three triggers: StartNode runs it at once, on
// Config.DataDir as it is or on RestoreFrom; a node started with Standby
// is the same thing not yet activated — GET /healthz says "standby",
// everything else is 503 — until POST /restore runs the sequence for the
// dead node it names, after which it *is* that node, serving its jobs,
// curves and SSE sequences. Drain and Close undo it in reverse order.
type Node struct {
	opts NodeOptions
	recv *shipper.Receiver // the /ship/ receiver, nil without ShipRecvDir
	idle *http.ServeMux    // what a standby serves until it is activated

	mu     sync.Mutex // serializes activation and Close
	active atomic.Pointer[activeNode]
}

// activeNode is what activation builds; the embedded response is what
// POST /restore answers, the first time and every time after.
type activeNode struct {
	restoreResponse
	server *Server          // in front of the node's manager
	ship   *shipper.Shipper // nil without ShipTo
}

// StartNode assembles a node from opts: blank with Standby, otherwise
// active when it returns. Serve it as an http.Handler; Close it when done.
func StartNode(opts NodeOptions) (*Node, error) {
	cfg := opts.Config
	if cfg.DataDir == "" && (opts.Standby || len(opts.RestoreFrom) > 0) {
		return nil, errors.New("a standby or a restored node needs a data directory")
	}
	if cfg.NodeName != "" {
		if err := shipper.ValidNode(cfg.NodeName); err != nil {
			return nil, err
		}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	n := &Node{opts: opts}
	if opts.ShipRecvDir != "" {
		recv, err := shipper.NewReceiver(opts.ShipRecvDir)
		if err != nil {
			return nil, err
		}
		n.recv = recv
		opts.Logf("receiving peer replicas under /ship/ into %s", opts.ShipRecvDir)
	}
	if !opts.Standby {
		if err := n.activate(cfg.NodeName, cfg.DataDir, opts.RestoreFrom); err != nil {
			return nil, err
		}
		return n, nil
	}
	n.idle = http.NewServeMux()
	n.mountBeside(n.idle)
	n.idle.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, healthBody{Status: "standby"})
	})
	n.idle.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusServiceUnavailable, "standby: not active")
	})
	return n, nil
}

// mountBeside registers what a node serves beside the job API, on the
// idle mux and on each activated Server's own mux: the routes answer
// before and after a promotion, and an active node's requests still pass
// through one mux only.
func (n *Node) mountBeside(mux *http.ServeMux) {
	if n.opts.Pprof {
		// Importing net/http/pprof registers it on http.DefaultServeMux, in
		// every binary that links serve; none of them serves that mux, so
		// it is reachable here only, and only with the flag.
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
	}
	if n.recv != nil {
		mux.Handle("/ship/", http.StripPrefix("/ship", n.recv))
	}
	mux.HandleFunc("POST /restore", n.restore)
}

// activate is the one way to become a node: restore the first usable of
// replicas into dataDir (when any are given), start the shipper, rebuild
// the manager from the journal in dataDir (a fresh in-memory manager when
// there is no data directory) and put a Server in front of it. Called
// with n.mu held, or before the node is shared.
func (n *Node) activate(node, dataDir string, replicas []string) (err error) {
	logf, source := n.opts.Logf, ""
	if len(replicas) > 0 {
		if source, err = shipper.Restore(replicas, dataDir); err != nil {
			return fmt.Errorf("restoring replica: %w", err)
		}
		logf("restored shipped replica %s into %s (of %d candidates)", source, dataDir, len(replicas))
	}
	cfg := n.opts.Config
	cfg.NodeName, cfg.DataDir = node, dataDir
	var ship *shipper.Shipper
	if len(n.opts.ShipTo) > 0 {
		ship, err = newShipper(dataDir, node, n.opts.ShipTo, n.opts.Ship)
		if err != nil {
			return err
		}
		cfg.Shipper = ship
		logf("shipping journal + traces to %s (sync=%v)", strings.Join(n.opts.ShipTo, ", "), n.opts.Ship.Sync)
	}
	var manager *Manager
	if dataDir != "" {
		manager, err = NewManagerFromJournal(cfg)
		if err != nil {
			if ship != nil {
				ship.Close()
			}
			return fmt.Errorf("recovering journal: %w", err)
		}
		b := manager.boot
		logf("journal at %s recovered (%d jobs, %d live) as node %q in %.1f ms (journal %.1f ms, trace log %.1f ms)",
			dataDir, b.jobs, b.live, node, ms(b.total), ms(b.journal), ms(b.trace))
	} else {
		manager = NewManager(cfg)
	}
	server := NewServer(manager)
	n.mountBeside(server.mux)
	n.active.Store(&activeNode{restoreResponse{Node: node, Source: source}, server, ship})
	return nil
}

// newShipper builds one lane per sink: an http(s) URL pushes to a peer's
// /ship receiver; anything else is a local directory, with the node name
// appended so several nodes can share one sink root. Each sink keeps its
// own resumable offsets, so one lagging or down sink never holds the
// others back.
func newShipper(dataDir, node string, dests []string, opts shipper.Options) (*shipper.Shipper, error) {
	if dataDir == "" || node == "" {
		return nil, errors.New("shipping needs a data directory and a node name")
	}
	sinks := make([]shipper.Sink, len(dests))
	for i, dest := range dests {
		var err error
		if strings.HasPrefix(dest, "http://") || strings.HasPrefix(dest, "https://") {
			base := strings.TrimSuffix(dest, "/")
			if !strings.HasSuffix(base, "/ship") {
				base += "/ship"
			}
			sinks[i], err = shipper.NewHTTPSink(base, node, nil)
		} else {
			sinks[i], err = shipper.NewDirSink(filepath.Join(dest, node))
		}
		if err != nil {
			return nil, err
		}
	}
	return shipper.NewMulti(dataDir, sinks, opts), nil
}

// ServeHTTP implements http.Handler: the node's Server once it is active,
// the standby protocol before.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if a := n.active.Load(); a != nil {
		a.server.ServeHTTP(w, r)
		return
	}
	n.idle.ServeHTTP(w, r)
}

// restoreRequest is the coordinator's POST /restore payload: the dead
// node's identity and its candidate replica directories in preference
// order (the coordinator lists every verified sink replica; the node
// re-verifies as it copies and uses the first that restores cleanly).
type restoreRequest struct {
	Node    string   `json:"node"`
	Sources []string `json:"sources"`
}

// restoreResponse reports a promotion: which node this is now and which
// replica it was restored from.
type restoreResponse struct {
	Node   string `json:"node"`
	Source string `json:"source"`
}

// restore handles POST /restore, the coordinator's promotion call. It is
// idempotent: a node already active under the requested name answers 200
// with the body it answered the first time — the coordinator may have
// lost that ack, or died before acting on it — and only a request to
// become someone else is a conflict. Serialized with Close and with other
// promotions, so a second restore racing the first gets the first's
// answer instead of a double activation.
func (n *Node) restore(w http.ResponseWriter, r *http.Request) {
	var req restoreRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "decoding restore request: %v", err)
		return
	}
	if len(req.Sources) == 0 {
		WriteError(w, http.StatusBadRequest, "restore needs node and sources")
		return
	}
	if err := shipper.ValidNode(req.Node); err != nil {
		WriteError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.active.Load() == nil {
		// Under DataDir/<node>, so a standby whose promotion failed can be
		// asked to become a different node without meeting the earlier
		// attempt's directory.
		if err := n.activate(req.Node, filepath.Join(n.opts.Config.DataDir, req.Node), req.Sources); err != nil {
			WriteError(w, http.StatusBadGateway, "restore: %v", err)
			return
		}
	}
	if a := n.active.Load(); a.Node != req.Node {
		WriteError(w, http.StatusConflict, "already active as %s", a.Node)
	} else {
		WriteJSON(w, http.StatusOK, a.restoreResponse)
	}
}

// Drain is the first phase of a graceful stop: new submissions are
// refused with 503 and open SSE streams end, then it waits for every
// in-flight job to finish naturally or for ctx to expire. Reads keep
// working, so callers shut their HTTP server down between Drain and
// Close. A node that was never activated has nothing to drain.
func (n *Node) Drain(ctx context.Context) error {
	a := n.active.Load()
	if a == nil {
		return nil
	}
	a.server.SetDraining(true)
	return a.server.manager.Drain(ctx)
}

// Close takes the node down in the reverse of the order it was assembled
// in: the manager cancels what is still running (reason "shutdown") and
// closes its trace store and journal, then the shipper flushes that final
// state to its sinks and stops, and the /ship/ receiver closes the replica
// files it holds open — the one step a blank node has too. Callers stop
// serving requests first.
func (n *Node) Close(ctx context.Context) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	var err error
	if a := n.active.Load(); a != nil {
		err = a.server.manager.Shutdown(ctx)
		if a.ship != nil {
			if serr := a.ship.Close(); serr != nil {
				n.opts.Logf("ship: final flush: %v", serr)
			}
		}
	}
	if n.recv != nil {
		if rerr := n.recv.Close(); rerr != nil {
			n.opts.Logf("ship receiver: closing replicas: %v", rerr)
		}
	}
	return err
}
