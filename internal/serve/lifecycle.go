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
	phaseRestored               // boot: terminal in the journal, feed never closed
)

// transition moves a job one step along its lifecycle; it is the only code
// that journals a job or publishes a status, preempted or resumed event.
// Under job.mu it runs apply (the step's outcome, may be nil), sets the
// status fields the phase implies and builds the record and the event from
// that one state. Then it writes both by one rule: a terminal transition
// reaches the trace log — which fsyncs it and closes the job's feed —
// before the journal's result record, so a journal that says a job
// finished has its whole trace on disk behind it; every other transition
// is journaled first. A journal error only counts in journal_errors: the
// in-memory table stays authoritative until the next restart.
func (m *Manager) transition(job *Job, ph phase, at time.Time, apply func()) {
	var rec journal.Record
	var ck *checkpointState // marshalled without the lock
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
		job.checkpointLen = len(job.trials)
		job.segCancel = nil
		// Appends never touch the recorded prefix.
		ck = &checkpointState{Preempts: job.preempts, Trials: job.trials}
		rec = journal.Record{Type: journal.TypePreempt, Tenant: job.tenant(), Evaluations: len(job.trials)}
		ev.Type, ev.Round = events.TypePreempted, job.maxRound
	case phaseTerminal:
		job.segCancel = nil
		job.finished = at
		rec = job.resultLocked()
		ev.Terminal = true
	case phaseRestored: // late subscribers get a terminal event, not a hang
		ev.Terminal = true
	}
	if ev != nil {
		ev.Status = string(job.status)
		if ev.Type == events.TypeStatus {
			ev.Reason, ev.Error = string(job.reason), job.errMsg
		}
	}
	job.mu.Unlock()

	closes := ev != nil && ev.Terminal
	if closes {
		m.publish(job.ID, *ev)
	}
	if rec.Type != "" && m.journal != nil {
		rec.Time, rec.JobID = at, job.ID
		var err error
		if rec.Type == journal.TypeSubmit {
			rec.Spec, err = json.Marshal(job.Spec)
		} else if ck != nil {
			// A checkpoint that does not encode is counted and left out:
			// the job then comes back queued, to run from scratch.
			rec.Checkpoint, err = json.Marshal(ck)
			if err != nil {
				m.journalErrs.Add(1)
				err = nil
			}
		}
		if err != nil || m.journal.Append(rec) != nil {
			m.journalErrs.Add(1)
		}
	}
	if ev != nil && !closes {
		m.publish(job.ID, *ev)
	}
}

// resultLocked is the journal's result record of a finished job:
// everything GET /jobs/{id} serves of it after a restart, which
// restoreResult below reads back. Called with j.mu held.
func (j *Job) resultLocked() journal.Record {
	return journal.Record{
		Type:        journal.TypeResult,
		Status:      string(j.status),
		Reason:      string(j.reason),
		Error:       j.errMsg,
		Stack:       j.stack,
		Evaluations: j.evaluations,
		Curve:       j.curve,
		BestConfig:  j.bestConfig,
		BestScore:   j.bestScore,
		TestScore:   j.testScore,
		Preemptions: j.preempts,
		Failures:    j.failures,
	}
}

// restoreResult is resultLocked read back into a job the journal holds as
// terminal, at boot, before the manager serves or runs anything. (What
// every restored job carries, its preemption count and its submission and
// first start times, the boot sets for all of them.)
func (j *Job) restoreResult(st journal.JobState) {
	j.status = Status(st.Status)
	j.reason = Reason(st.Reason)
	j.errMsg = st.Error
	j.stack = st.Stack
	j.evaluations = st.Evaluations
	j.curve = st.Curve
	j.bestConfig = st.BestConfig
	j.bestScore = st.BestScore
	j.testScore = st.TestScore
	j.failures = st.Failures
	j.finished = st.FinishedAt
}
