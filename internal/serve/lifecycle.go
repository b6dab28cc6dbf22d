package serve

import (
	"encoding/json"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/serve/journal"
)

// phase is one step of a job's lifecycle (DESIGN.md, "Job lifecycle").
type phase int

const (
	phaseSubmitted phase = iota // accepted and queued
	phaseRunning                // granted a job slot: a first grant, or a resume
	phasePreempted              // yielded at a rung boundary, queued again
	phaseTerminal               // done, failed or cancelled
	phaseRestored               // boot: terminal in the journal, or ended by the boot
)

// transition moves a job one step along its lifecycle; it is the only code
// that records a job or publishes a status, preempted or resumed event.
// Under job.mu it runs apply (the step's outcome, may be nil), sets the
// status fields the phase implies and builds the record and the event from
// that one state. A restored job is recorded only when apply is the
// boot's own verdict; its event is published only if its feed never
// closed. Then it writes both to the one log, record, then event: the
// terminal event's fsync makes the result record before it durable too,
// and a boot publishes a terminal event a crash cut off. A preempt
// record, and a result no event follows, is synced itself. A record that
// cannot be written only counts in journal_errors: the in-memory table
// stays authoritative until the next restart.
func (m *Manager) transition(job *Job, ph phase, at time.Time, apply func()) {
	var rec journal.Record
	ev := &events.Event{Type: events.TypeStatus, Time: at}
	job.mu.Lock()
	if apply != nil {
		apply()
	}
	switch ph {
	case phaseSubmitted:
		rec = journal.Record{Type: journal.TypeSubmit, Token: job.token, Tenant: job.tenant()}
		ev = nil
	case phaseRunning:
		job.status = StatusRunning
		if job.started.IsZero() {
			job.started = at
		}
		// The optimizer restarts from scratch every segment, regenerating
		// the checkpointed prefix through cache hits: those observations
		// must not be recorded or charged again.
		job.replaySkip = job.checkpointLen
		rec = journal.Record{Type: journal.TypeStatus, Status: string(StatusRunning)}
		if job.checkpointLen > 0 {
			ev.Type, ev.Round = events.TypeResumed, job.maxRound
			m.resumes.Add(1)
		}
	case phasePreempted:
		job.status = StatusQueued
		job.preempts++
		job.checkpointLen = job.evaluations
		job.segCancel = nil
		// The resume point is the count: the feed holds the points.
		ck, _ := json.Marshal(checkpointState{Preempts: job.preempts}) // an int always encodes
		rec = journal.Record{Type: journal.TypePreempt, Tenant: job.tenant(), Evaluations: job.evaluations, Checkpoint: ck}
		ev.Type, ev.Round = events.TypePreempted, job.maxRound
	case phaseTerminal:
		job.segCancel = nil
		job.finished = at
		rec = job.resultLocked()
		ev.Terminal = true
	case phaseRestored:
		if apply != nil {
			rec = job.resultLocked()
		}
		if m.hub.Done(job.ID) {
			ev = nil
		} else {
			ev.Terminal = true // late subscribers get a terminal event, not a hang
		}
	}
	if ev != nil {
		ev.Status = string(job.status)
		if ev.Type == events.TypeStatus {
			ev.Reason, ev.Error = string(job.reason), job.errMsg
		}
	}
	job.mu.Unlock()

	if rec.Type != "" && m.traces != nil {
		rec.Time, rec.JobID = at, job.ID
		var specErr error
		if rec.Type == journal.TypeSubmit {
			rec.Spec, specErr = json.Marshal(job.Spec)
		}
		line, err := json.Marshal(rec)
		sync := rec.Type == journal.TypePreempt || rec.Type == journal.TypeResult && (ev == nil || !ev.Terminal)
		if specErr != nil || err != nil || m.traces.AppendRecord(line, sync) != nil {
			m.journalErrs.Add(1)
		}
	}
	if ev != nil {
		m.publish(job.ID, *ev)
	}
}

// resultLocked is the result record of a finished job:
// everything GET /jobs/{id} serves of it after a restart, which
// restoreResult below reads back — except the curve, which the trace log
// already holds as the job's curve_point events; the record carries only
// its final cumulative budget. Called with j.mu held.
func (j *Job) resultLocked() journal.Record {
	return journal.Record{
		Type:        journal.TypeResult,
		Status:      string(j.status),
		Reason:      string(j.reason),
		Error:       j.errMsg,
		Stack:       j.stack,
		Evaluations: j.evaluations,
		Budget:      j.last.CumBudget,
		BestConfig:  j.bestConfig,
		BestScore:   j.bestScore,
		TestScore:   j.testScore,
		Preemptions: j.preempts,
		Failures:    j.failures,
	}
}

// restoreResult is resultLocked read back into a job the records hold as
// terminal, at boot, before the manager serves or runs anything; its curve
// is its feed's, like every job's. (What every restored job carries, its
// preemption count and its submission and first start times, the boot
// sets for all of them.)
func (j *Job) restoreResult(st journal.JobState) {
	j.status = Status(st.Status)
	j.reason = Reason(st.Reason)
	j.errMsg = st.Error
	j.stack = st.Stack
	j.evaluations = st.Evaluations
	j.bestConfig = st.BestConfig
	j.bestScore = st.BestScore
	j.testScore = st.TestScore
	j.failures = st.Failures
	j.finished = st.FinishedAt
}
