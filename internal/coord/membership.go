package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"enhancedbhpo/internal/serve"
	"enhancedbhpo/internal/serve/seglog"
)

// This file is ring membership: the operations, the crash-safe journal
// that records them, and the POST /cluster/{join, drain, leave, standby,
// replace} endpoints that issue them.

// MembersFileName is the coordinator's membership journal inside its
// data directory: one JSON line per membership operation, fsynced before
// the operation is acknowledged, so a restarted coordinator rebuilds the
// *current* ring — runtime joins, leaves, drains, standby registrations
// and automated replaces included — not the boot-time one. Membership
// changes are rare, so the file stays small and is never compacted;
// replay tolerates a torn final line (crash mid-append) by stopping at
// the last whole record, and the next openMemberLog cuts it off. A whole
// line that does not decode fails the replay.
const MembersFileName = "members.jsonl"

// Membership operations.
const (
	// OpJoin adds (or re-points, for a replace) a ring member.
	OpJoin = "join"
	// OpLeave removes a ring member after its drain completed.
	OpLeave = "leave"
	// OpDrain marks a member as draining (on=true) or cancels it.
	OpDrain = "drain"
	// OpStandby registers a spare (on=true) or removes it.
	OpStandby = "standby"
	// OpQuarantine flags a standby that failed a restore (on=true) so a
	// restarted coordinator does not retry it first.
	OpQuarantine = "quarantine"
)

// MemberOp is one membership journal line.
type MemberOp struct {
	Op   string    `json:"op"`
	Node string    `json:"node"`
	URL  string    `json:"url,omitempty"`
	On   bool      `json:"on,omitempty"`
	Time time.Time `json:"time"`
}

// memberLog appends membership operations durably through seglog, the
// writer under bhpod's journal and trace log: one write per operation,
// fsynced before append returns — a membership change the coordinator
// acknowledged is never lost to a crash — and a write that fails is cut
// back off, so the next operation is not appended behind half a line.
// Safe for concurrent use.
type memberLog struct {
	mu sync.Mutex
	f  *seglog.File
}

// openMemberLog opens (creating if needed) dir's membership journal for
// appending; seglog cuts off the torn tail a crash mid-append leaves.
func openMemberLog(dir string) (*memberLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("coord: members journal: %w", err)
	}
	f, err := seglog.OpenFile(filepath.Join(dir, MembersFileName))
	if err != nil {
		return nil, fmt.Errorf("coord: members journal: %w", err)
	}
	return &memberLog{f: f}, nil
}

// append writes one operation and fsyncs it.
func (l *memberLog) append(op MemberOp) error {
	if l == nil {
		return nil // membership persistence disabled (no data dir)
	}
	if op.Time.IsZero() {
		op.Time = time.Now()
	}
	line, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("coord: members journal: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("coord: members journal: closed")
	}
	if _, err := l.f.Append(append(line, '\n'), true); err != nil {
		return fmt.Errorf("coord: members journal: %w", err)
	}
	return nil
}

// close closes the journal. Idempotent.
func (l *memberLog) close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	return f.Close()
}

// replayMemberLog reads dir's membership journal in append order. A
// missing file is an empty history; a torn final line ends the replay at
// the last whole record; a whole line that does not decode is an error
// naming the file and the line.
func replayMemberLog(dir string) ([]MemberOp, error) {
	var ops []MemberOp
	err := seglog.ReadLines(filepath.Join(dir, MembersFileName), func(line []byte) error {
		var op MemberOp
		if err := json.Unmarshal(line, &op); err != nil {
			return err
		}
		ops = append(ops, op)
		return nil
	})
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("coord: members journal: %w", err)
	}
	return ops, nil
}

// memberBody is the request for the membership endpoints.
type memberBody struct {
	Node string `json:"node"`
	URL  string `json:"url,omitempty"`
	// Remove, on POST /cluster/standby, deregisters the standby.
	Remove bool `json:"remove,omitempty"`
	// DeadlineSec bounds POST /cluster/leave's wait for running jobs.
	// 0 selects 30s.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
}

// refusal is a membership operation's answer when it is not the node
// table: the HTTP status and the error message.
type refusal struct {
	status int
	msg    string
}

func (e refusal) Error() string { return e.msg }

func refuse(status int, format string, args ...any) error {
	return refusal{status: status, msg: fmt.Sprintf(format, args...)}
}

// memberEndpoint adapts a membership operation to its endpoint: decode
// the body, run op, and answer with the sorted node table — or with op's
// refusal, or 500 for any other error (a membership journal write that
// failed).
func (c *Coordinator) memberEndpoint(op func(r *http.Request, body memberBody) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body memberBody
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&body); err != nil {
			serve.WriteError(w, http.StatusBadRequest, "decoding: %v", err)
			return
		}
		if body.Node == "" {
			serve.WriteError(w, http.StatusBadRequest, "empty node")
			return
		}
		err := op(r, body)
		var refused refusal
		switch {
		case errors.As(err, &refused):
			serve.WriteError(w, refused.status, "%s", refused.msg)
		case err != nil:
			serve.WriteError(w, http.StatusInternalServerError, "%v", err)
		default:
			c.writeStatusList(w)
		}
	}
}

// writeStatusList responds with the node table: GET /cluster, and the
// success payload of every membership endpoint.
func (c *Coordinator) writeStatusList(w http.ResponseWriter) {
	serve.WriteJSON(w, http.StatusOK, c.prober.status())
}

// repoint points an existing ring identity at a new URL — the one
// re-point path, behind both the manual POST /cluster/replace and the
// failover pipeline's promotion. The hash range, the node-qualified job
// IDs and the SSE sequence numbering all survive because the *name* is
// the identity; only the address changed. The operation is journaled,
// then applied even when the journal write failed (the node's jobs live
// at url now; refusing to route there helps nobody) and the journal error
// is returned for the caller to report. The replacement just replayed the
// shipped journal, so its job table is the dead node's and counts into
// jobs_failed_over (best-effort); a probe round confirms the new address.
func (c *Coordinator) repoint(ctx context.Context, node, url string, ev ClusterEvent) error {
	op := MemberOp{Op: OpJoin, Node: node, URL: url}
	jerr := c.journal.append(op)
	c.applyMemberOp(op)
	if snaps, err := getJSON[[]serve.Snapshot](ctx, c.client, url+"/jobs"); err == nil {
		c.jobsFailedOver.Add(int64(len(snaps)))
	}
	c.recordEvent(ev)
	c.ProbeNow()
	return jerr
}

// replaceNode handles POST /cluster/replace, the manual failover step
// after a machine dies: the operator restores the dead node's shipped
// replica onto a fresh machine (bhpod -restore-from), starts it under the
// same -node name, and points the coordinator here.
func (c *Coordinator) replaceNode(r *http.Request, body memberBody) error {
	if body.URL == "" {
		return refuse(http.StatusBadRequest, "empty url")
	}
	if _, known := c.prober.memberURL(body.Node); !known {
		return refuse(http.StatusNotFound, "no node %q", body.Node)
	}
	newURL := strings.TrimSuffix(body.URL, "/")
	return c.repoint(r.Context(), body.Node, newURL,
		ClusterEvent{Type: "replace", Node: body.Node, Detail: "re-pointed to " + newURL})
}

// joinNode handles POST /cluster/join: a worker enters the ring live.
// Consistent hashing moves only ~1/(N+1) of scope ownership to the new
// node; every existing job stays addressable by its node-qualified ID.
// Joining an existing name at the same URL is idempotent; at a different
// URL it is a conflict (that is what replace is for).
func (c *Coordinator) joinNode(r *http.Request, body memberBody) error {
	if err := validNode(Node{Name: body.Node, URL: body.URL}); err != nil {
		return refuse(http.StatusBadRequest, "%v", err)
	}
	newURL := strings.TrimSuffix(body.URL, "/")
	existing, known := c.prober.memberURL(body.Node)
	if known && existing != newURL {
		return refuse(http.StatusConflict, "node %q already joined at %s (use /cluster/replace to re-point)", body.Node, existing)
	}
	if !known {
		if err := c.journalAndApply(MemberOp{Op: OpJoin, Node: body.Node, URL: newURL}); err != nil {
			return err
		}
		c.recordEvent(ClusterEvent{Type: "join", Node: body.Node, Detail: newURL})
	}
	c.ProbeNow()
	return nil
}

// drainNode handles POST /cluster/drain: stop routing new jobs to the
// node while it keeps serving reads and finishing running work — the
// first half of a graceful leave, usable on its own for maintenance.
func (c *Coordinator) drainNode(r *http.Request, body memberBody) error {
	if _, known := c.prober.memberURL(body.Node); !known {
		return refuse(http.StatusNotFound, "no node %q", body.Node)
	}
	if err := c.journalAndApply(MemberOp{Op: OpDrain, Node: body.Node, On: true}); err != nil {
		return err
	}
	c.recordEvent(ClusterEvent{Type: "drain", Node: body.Node})
	return nil
}

// drainPoll paces leaveNode's wait for a draining node's work: a leave
// takes seconds to minutes, so four polls a second cost nothing.
const drainPoll = 250 * time.Millisecond

// leaveNode handles POST /cluster/leave: drain the node (stop routing
// new jobs), wait for its running and queued work to finish (or the
// deadline), then remove it from the ring — its scope ownership remaps
// to the survivors (~1/N of the ring). Reads for its node-qualified job
// IDs stop resolving once it is gone, so a graceful leave should only
// complete after its jobs are terminal, which the wait enforces; a node
// that stops answering mid-wait is removed at the deadline anyway (the
// operator asked it gone, and its shipped replica still exists).
func (c *Coordinator) leaveNode(r *http.Request, body memberBody) error {
	nodeURL, known := c.prober.memberURL(body.Node)
	if !known {
		return refuse(http.StatusNotFound, "no node %q", body.Node)
	}
	if err := c.journalAndApply(MemberOp{Op: OpDrain, Node: body.Node, On: true}); err != nil {
		return err
	}
	deadline := 30 * time.Second
	if body.DeadlineSec > 0 {
		deadline = time.Duration(body.DeadlineSec * float64(time.Second))
	}
	timeout := time.After(deadline)
	var errStreak int
wait:
	for {
		m, err := getJSON[serve.Metrics](r.Context(), c.client, nodeURL+"/metrics")
		if err == nil && m.JobsRunning == 0 && m.JobsQueued == 0 && m.PendingDepth == 0 {
			break // idle: nothing running, queued or pending
		}
		if err != nil {
			// A node that cannot answer cannot drain; after a few tries,
			// stop waiting on it (it is likely already dead).
			if errStreak++; errStreak >= 3 {
				break
			}
		} else {
			errStreak = 0
		}
		select {
		case <-timeout:
			break wait
		case <-r.Context().Done():
			return refuse(http.StatusBadGateway, "leave interrupted: %v", r.Context().Err())
		case <-c.ctx.Done():
			return refuse(http.StatusServiceUnavailable, "coordinator shutting down")
		case <-time.After(drainPoll):
		}
	}
	if err := c.journalAndApply(MemberOp{Op: OpLeave, Node: body.Node}); err != nil {
		return err
	}
	c.recordEvent(ClusterEvent{Type: "leave", Node: body.Node})
	return nil
}

// standbyNode handles POST /cluster/standby: register (or, with
// remove=true, deregister) a spare for the automated failover pool.
func (c *Coordinator) standbyNode(r *http.Request, body memberBody) error {
	if body.Remove {
		if err := c.journalAndApply(MemberOp{Op: OpStandby, Node: body.Node, On: false}); err != nil {
			return err
		}
		c.recordEvent(ClusterEvent{Type: "standby-removed", Node: body.Node})
		return nil
	}
	if err := validNode(Node{Name: body.Node, URL: body.URL}); err != nil {
		return refuse(http.StatusBadRequest, "%v", err)
	}
	if _, isMember := c.prober.memberURL(body.Node); isMember {
		return refuse(http.StatusConflict, "node %q is a ring member", body.Node)
	}
	if err := c.journalAndApply(MemberOp{Op: OpStandby, Node: body.Node, URL: strings.TrimSuffix(body.URL, "/"), On: true}); err != nil {
		return err
	}
	c.recordEvent(ClusterEvent{Type: "standby-added", Node: body.Node, Detail: body.URL})
	c.ProbeNow()
	return nil
}
