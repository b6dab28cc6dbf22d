package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/trace"
)

// keepaliveInterval paces the SSE comment pings that keep idle streams
// alive through proxies and let dead clients surface as write errors.
const keepaliveInterval = 15 * time.Second

// jobEvents serves GET /jobs/{id}/events: the job's telemetry as a
// Server-Sent Events stream. Each event carries its hub sequence number
// as the SSE id, so a client that reconnects with Last-Event-ID (or
// ?after=N) resumes exactly where it stopped — the backlog past that
// sequence is replayed first, then live events follow; nothing is lost
// or duplicated. The stream ends after the job's terminal event, when
// the client goes away, or when the server starts draining.
func (s *Server) jobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.manager.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	after := uint64(0)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad Last-Event-ID %q", v)
			return
		}
		after = n
	}
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad after %q", v)
			return
		}
		after = n
	}
	// Subscribe before the headers go out: registration and the backlog
	// snapshot are atomic in the hub, so the stream holds the
	// exactly-once guarantee from its first byte.
	sub, backlog := s.manager.hub.Subscribe(job.ID, after)
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	last := after
	write := func(ev events.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			return false
		}
		last = ev.Seq
		return true
	}
	for _, ev := range backlog {
		if !write(ev) {
			return
		}
	}
	flusher.Flush()

	drain := s.drainSignal()
	keepalive := time.NewTicker(keepaliveInterval)
	defer keepalive.Stop()
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				// Terminal event delivered (or the feed closed): the
				// stream is complete.
				return
			}
			if ev.Seq <= last {
				// Already sent via a gap backfill below.
				continue
			}
			if ev.Seq > last+1 {
				// The subscriber lagged and the hub dropped events from
				// its buffer; the history keeps everything, so backfill
				// the gap in order before carrying on.
				for _, missed := range s.manager.hub.Since(job.ID, last) {
					if !write(missed) {
						return
					}
				}
			} else if !write(ev) {
				return
			}
			flusher.Flush()
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-drain:
			// Drain-aware shutdown: close the stream cleanly so the HTTP
			// server's graceful Shutdown is not held open by subscribers.
			return
		}
	}
}

// jobTrace serves GET /jobs/{id}/trace: the job's full anytime curve in
// the trace package's wire encoding — its curve points as the event hub
// holds them: published by this process, or filed from the durable trace
// log for a job of an earlier life, so byte-identical across restarts.
// ?events=1 returns the raw event log (curve points plus lifecycle and
// observational events) instead.
func (s *Server) jobTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.manager.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	evs := s.manager.hub.Since(job.ID, 0)
	if r.URL.Query().Get("events") == "1" {
		if evs == nil {
			evs = []events.Event{}
		}
		WriteJSON(w, http.StatusOK, evs)
		return
	}
	var body bytes.Buffer
	if err := trace.EncodeAnytime(&body, curvePoints(evs)); err != nil {
		WriteError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body.Bytes())
}

// curvePoints is the anytime curve a job's events carry: their curve
// points, in order, never nil. It is the one source of every curve served
// — /trace, the ?since=N poll and every snapshot.
// A point that does not advance the evaluation count replaces the points
// from its count on: a life that died after resuming from a checkpoint
// left points past it in the log, which the next life, resuming from the
// same checkpoint, publishes again — and its snapshot holds only the
// second copy.
func curvePoints(evs []events.Event) []trace.Point {
	curve := make([]trace.Point, 0, len(evs))
	for _, ev := range evs {
		if ev.Type != events.TypeCurvePoint || ev.Point == nil {
			continue
		}
		for n := len(curve); n > 0 && curve[n-1].Evaluations >= ev.Point.Evaluations; n-- {
			curve = curve[:n-1]
		}
		curve = append(curve, *ev.Point)
	}
	return curve
}
