// Package events is bhpod's streaming-telemetry layer: a per-job hub
// that keeps typed, sequence-numbered job events and lets any number of
// subscribers read them. The runner publishes what the optimizer is doing
// as it happens — incumbent-curve points, rung promotions, evaluation
// retries, deadline abandonments, failure-budget charges, lifecycle
// transitions — and the HTTP layer re-exposes the feed as server-sent
// events, replacing status polling with push delivery.
//
// Every event carries a per-job monotonic sequence number assigned at
// publish time. The hub retains each job's full event history (jobs are
// bounded by their trial counts), so a subscriber can join late or
// reconnect and resume from any sequence number with exactly-once,
// in-order delivery. A subscription is only a position in that history
// and a channel the next publish closes: no event is copied per
// subscriber, so none can be dropped, whatever the reader's pace. That
// history is the only copy of a job's curve the serving process keeps:
// its snapshots, its /trace and a restarted job's resume point are all
// read from it. Events of this process life are retained decoded, as
// published, beside the one JSON line Publish encoded each to: the durable
// log writes that line and every event stream sends it, so an event is
// encoded once however many read it. A job that finished in an earlier
// life is primed with its last sequence number and a loader (Prime), its
// history held as the durable log's lines and decoded — once, then
// retained like any other — the first time Since or a subscription reads
// it. A restart therefore pays for the jobs somebody asks about, not for
// every job there ever was.
//
// An optional Sink receives every event and its line synchronously in
// publish order — the hook the durable trace store hangs off, so what is
// on disk is always a prefix of what subscribers saw.
package events

import (
	"time"

	"enhancedbhpo/internal/trace"
)

// Type discriminates job events.
type Type string

const (
	// TypeCurvePoint: the job's incumbent curve grew by one point (one
	// evaluation finished). Point carries the new tail of the curve.
	TypeCurvePoint Type = "curve_point"
	// TypeRung: the optimizer promoted into a new halving round/rung.
	// Round is the new rung, Budget its per-configuration budget.
	TypeRung Type = "rung"
	// TypeRetry: an evaluation attempt failed and was retried. Only trace
	// logs older binaries wrote hold it — the service now counts a failed
	// evaluation as definitive — and they decode and serve it as written.
	// Attempt is the 1-based attempt that failed, Error what it said.
	TypeRetry Type = "retry"
	// TypeDeadline: an evaluation ran past the watchdog deadline and was
	// abandoned (slot released, result discarded).
	TypeDeadline Type = "deadline"
	// TypeFailure: a definitively failed trial was charged to the job's
	// failure budget. Failures is the total charged so far.
	TypeFailure Type = "failure_budget"
	// TypeStatus: a lifecycle transition (running, done, failed,
	// cancelled). Terminal marks the final transition; after it the
	// job's feed is closed.
	TypeStatus Type = "status"
	// TypePreempted: the weighted-fair scheduler reclaimed the job's
	// slot at a rung boundary; the job is back in the queued state, its
	// completed trials counted in a checkpoint. Round is the highest rung
	// reached so far.
	TypePreempted Type = "preempted"
	// TypeResumed: a previously preempted (or crash-recovered) job got
	// a slot back and is running again; its checkpointed trial prefix
	// replays deterministically before new trials appear.
	TypeResumed Type = "resumed"
)

// Event is one job telemetry record. Only the fields relevant to the
// event's Type are set; the rest stay at their zero values and are
// omitted from the JSON wire form. Curve points reuse the trace
// package's bit-exact Point serialization, so curves reassembled from an
// event stream round-trip byte-identically.
type Event struct {
	// Seq is the per-job monotonic sequence number, starting at 1.
	Seq uint64 `json:"seq"`
	// Type says what happened.
	Type Type `json:"type"`
	// Time is when the event was published.
	Time time.Time `json:"time"`
	// JobID is the job the event belongs to.
	JobID string `json:"job"`

	// Point is the new incumbent-curve point (curve_point events).
	Point *trace.Point `json:"point,omitempty"`
	// Round is the newly entered rung (rung events; always ≥ 1 — the
	// initial rung 0 is not a promotion).
	Round int `json:"round,omitempty"`
	// Budget is the per-configuration budget of the new rung (rung
	// events) or of the affected evaluation (deadline events).
	Budget int `json:"budget,omitempty"`
	// Attempt is the 1-based evaluation attempt that failed (retry
	// events of older logs).
	Attempt int `json:"attempt,omitempty"`
	// Failures is the job's failure-budget charge count (failure_budget).
	Failures int `json:"failures,omitempty"`
	// Status is the new lifecycle state (status events).
	Status string `json:"status,omitempty"`
	// Reason qualifies a cancelled status (status events).
	Reason string `json:"reason,omitempty"`
	// Error carries the triggering error text (retry, failure_budget,
	// failed status).
	Error string `json:"error,omitempty"`
	// Terminal marks the job's final status transition.
	Terminal bool `json:"terminal,omitempty"`
}
