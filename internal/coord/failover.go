package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"enhancedbhpo/internal/serve"
	"enhancedbhpo/internal/serve/shipper"
)

// This file is the zero-operator failover pipeline. The prober's
// dead verdict triggers it; from there the node walks a state machine
// with no human in the loop:
//
//	dead → select standby → verify replicas → restore → replace → alive
//
// Concretely: verify the dead node's shipped replicas (manifest
// checksums, across every configured sink root), pick the first clean
// standby, POST /restore to it with the verified replica directories
// (the standby re-verifies, restores the first that holds up, and swaps
// in a full worker over the restored journal), then re-point the ring
// identity at the standby's URL — the same repoint a manual bhpoctl
// replace runs, recorded in the membership journal so a coordinator
// restart mid-incident resumes with the promotion either durably done
// or not yet done, never half-applied. A standby that fails its restore
// is quarantined and the next one tried; when everything is exhausted
// the pipeline backs off (capped) and retries — replicas may still be
// catching up, or an operator may register a fresh standby.

// ClusterEvent is one entry in the coordinator's bounded incident log
// (GET /cluster/events): membership changes, failovers, restore
// failures.
type ClusterEvent struct {
	Type string `json:"type"`
	Node string `json:"node"`
	// Standby is the spare involved (failover and restore_failed events).
	Standby string `json:"standby,omitempty"`
	// DurationSec is the dead→alive pipeline time on failover events.
	DurationSec float64   `json:"duration_sec,omitempty"`
	Detail      string    `json:"detail,omitempty"`
	Time        time.Time `json:"time"`
}

// maxClusterEvents bounds the in-memory incident log.
const maxClusterEvents = 256

// A failed restore round (no verified replica yet, or every standby
// failed) waits restoreBackoff, doubling up to restoreMaxBackoff: quick
// enough to catch a sink that was seconds behind, slow enough not to
// hammer standbys during a long outage.
const (
	restoreBackoff    = 500 * time.Millisecond
	restoreMaxBackoff = 15 * time.Second
)

// recordEvent appends to the incident log, dropping the oldest entries
// past the cap.
func (c *Coordinator) recordEvent(ev ClusterEvent) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	c.evMu.Lock()
	defer c.evMu.Unlock()
	c.events = append(c.events, ev)
	if n := len(c.events); n > maxClusterEvents {
		c.events = append(c.events[:0:0], c.events[n-maxClusterEvents:]...)
	}
}

// clusterEvents serves GET /cluster/events: the incident log, oldest
// first.
func (c *Coordinator) clusterEvents(w http.ResponseWriter, r *http.Request) {
	c.evMu.Lock()
	out := make([]ClusterEvent, len(c.events))
	copy(out, c.events)
	c.evMu.Unlock()
	serve.WriteJSON(w, http.StatusOK, out)
}

// onNodeDead is the prober's dead-transition hook. One pipeline per
// node: a node that flaps dead while its restore is already running
// does not spawn a second, and none starts once Shutdown has begun.
func (c *Coordinator) onNodeDead(name string) {
	if !c.cfg.AutoFailover {
		return
	}
	c.failMu.Lock()
	if c.restoring[name] || c.ctx.Err() != nil {
		c.failMu.Unlock()
		return
	}
	c.restoring[name] = true
	c.failovers.Add(1)
	c.failMu.Unlock()
	c.recordEvent(ClusterEvent{Type: "node-dead", Node: name})
	go c.runFailover(name)
}

// runFailover drives one dead node through the restore pipeline until
// the node is replaced, resurrects on its own, or the coordinator shuts
// down.
func (c *Coordinator) runFailover(name string) {
	defer c.failovers.Done()
	defer func() {
		c.failMu.Lock()
		delete(c.restoring, name)
		c.failMu.Unlock()
	}()
	c.prober.update(name, func(e *probeEntry) { e.restoring = true })
	start := time.Now()
	backoff := restoreBackoff
	for {
		if c.prober.stateOf(name) != StateRestoring {
			// Resurrected (a probe succeeded), replaced manually, or left
			// the ring: nothing to restore.
			c.prober.update(name, func(e *probeEntry) { e.restoring = false })
			return
		}
		sources := c.verifiedReplicas(name)
		if len(sources) > 0 {
			for _, sb := range c.prober.standbys() {
				if c.tryPromote(name, sb, sources, start) {
					return
				}
			}
		}
		// No verified replica yet (shipping may still be catching up on a
		// lagging sink) or every standby failed: back off and retry.
		select {
		case <-c.ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, restoreMaxBackoff)
	}
}

// verifiedReplicas returns the dead node's replica directories whose
// manifests verify, in sink order — the restore preference list. The
// standby re-verifies and falls back across them on mismatch, so this
// is an optimization and a first checksum gate, not the only one.
func (c *Coordinator) verifiedReplicas(name string) []string {
	var out []string
	for _, root := range c.cfg.SinkRoots {
		dir := filepath.Join(root, name)
		if err := shipper.VerifyReplica(dir); err == nil {
			out = append(out, dir)
		}
	}
	return out
}

// tryPromote asks one standby to restore the dead node and, on success,
// re-points the ring identity at it. Returns true when the cluster is
// healed. A failed attempt quarantines the standby (durably, so a
// restarted coordinator will not try it first again) and returns false.
func (c *Coordinator) tryPromote(name string, sb standbyInfo, sources []string, start time.Time) bool {
	body, _ := json.Marshal(struct {
		Node    string   `json:"node"`
		Sources []string `json:"sources"`
	}{Node: name, Sources: sources})
	err := func() error {
		req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, sb.url+"/restore", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var eb errorBody
			_ = json.NewDecoder(resp.Body).Decode(&eb)
			return fmt.Errorf("restore on %s: %s: %s", sb.name, resp.Status, eb.Error)
		}
		return nil
	}()
	if err != nil {
		if c.ctx.Err() != nil {
			return false // Shutdown cut the attempt short: the standby did not fail
		}
		c.restoresFailed.Add(1)
		// Durable quarantine, best-effort: a journal write failure only
		// loses the preference ordering, not correctness.
		_ = c.journal.append(MemberOp{Op: OpQuarantine, Node: sb.name, On: true})
		c.prober.update(sb.name, func(e *probeEntry) { e.quarantined = true })
		c.recordEvent(ClusterEvent{Type: "restore_failed", Node: name, Standby: sb.name, Detail: err.Error()})
		return false
	}
	// The standby now serves the dead node's jobs; re-point the ring
	// identity. Journal the standby's consumption and the re-point as one
	// ordered pair — replaying either prefix is consistent (the standby
	// disappears first, then the member re-points).
	if jerr := c.journal.append(MemberOp{Op: OpStandby, Node: sb.name, On: false}); jerr != nil {
		c.recordEvent(ClusterEvent{Type: "journal_error", Node: sb.name, Detail: jerr.Error()})
	}
	c.applyMemberOp(MemberOp{Op: OpStandby, Node: sb.name, On: false})
	dur := time.Since(start)
	if jerr := c.repoint(c.ctx, name, sb.url, ClusterEvent{
		Type:        "failover",
		Node:        name,
		Standby:     sb.name,
		DurationSec: dur.Seconds(),
		Detail:      "restored onto " + sb.url,
	}); jerr != nil {
		c.recordEvent(ClusterEvent{Type: "journal_error", Node: name, Detail: jerr.Error()})
	}
	c.restoreDurMicros.Add(dur.Microseconds())
	c.autoRestores.Add(1)
	return true
}
