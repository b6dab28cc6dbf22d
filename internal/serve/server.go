package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/serve/sched"
	"enhancedbhpo/internal/trace"
)

// Server exposes a Manager over HTTP/JSON.
//
//	POST   /jobs               submit a JobSpec, returns the queued job
//	                           snapshot; 429 + Retry-After when the pending
//	                           queue is full or the tenant is at quota,
//	                           503 while draining
//	POST   /jobs:batch         submit several JobSpecs atomically: all are
//	                           admitted (against the global cap and every
//	                           tenant's quota, counting the batch itself)
//	                           or none is; 400 names the offending item
//	GET    /jobs               list all jobs (snapshots without curves);
//	                           ?tenant=X filters to one tenant
//	GET    /tenants            per-tenant weighted-fair usage: weight,
//	                           virtual time, queue depth, evaluations,
//	                           service units, shed and preemption counts
//	GET    /jobs/{id}          one job's status + live anytime curve;
//	                           ?since=N returns only curve points past
//	                           event sequence N (incremental poll)
//	GET    /jobs/{id}/events   live telemetry as Server-Sent Events with
//	                           Last-Event-ID resume
//	GET    /jobs/{id}/trace    the full anytime curve, durable across
//	                           restarts; ?events=1 for the raw event log
//	DELETE /jobs/{id}          cancel a job (idempotent on terminal jobs)
//	GET    /methods            registered optimizers (name, aliases,
//	                           capabilities)
//	GET    /healthz            liveness/readiness probe (ok|overloaded|draining)
//	GET    /metrics            service counters (jobs, pool, cache, events,
//	                           eval rate)
type Server struct {
	manager  *Manager
	mux      *http.ServeMux
	draining atomic.Bool

	// drainCh is closed when drain mode turns on, telling long-lived SSE
	// streams to end so graceful shutdown is not held open by them.
	drainMu sync.Mutex
	drainCh chan struct{}
}

// NewServer wires the HTTP routes around the manager.
func NewServer(m *Manager) *Server {
	s := &Server{manager: m, mux: http.NewServeMux(), drainCh: make(chan struct{})}
	s.mux.HandleFunc("POST /jobs", s.submitJob)
	s.mux.HandleFunc("POST /jobs:batch", s.submitBatch)
	s.mux.HandleFunc("GET /jobs", s.listJobs)
	s.mux.HandleFunc("GET /tenants", s.listTenants)
	s.mux.HandleFunc("GET /jobs/{id}", s.getJob)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.jobEvents)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.jobTrace)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.cancelJob)
	s.mux.HandleFunc("GET /methods", s.listMethods)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SetDraining toggles drain mode: while draining, POST /jobs is refused
// with 503 so in-flight work can finish and be journaled before the
// daemon exits, and open SSE event streams are closed so they cannot
// hold the graceful shutdown open. Reads (status, metrics, health) keep
// working.
func (s *Server) SetDraining(on bool) {
	s.draining.Store(on)
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	select {
	case <-s.drainCh:
		if !on {
			s.drainCh = make(chan struct{})
		}
	default:
		if on {
			close(s.drainCh)
		}
	}
}

// drainSignal returns the channel closed when drain mode turns on.
func (s *Server) drainSignal() <-chan struct{} {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.drainCh
}

// errorBody is the JSON error envelope. Field names the JobSpec field a
// validation error points at, when one does.
type errorBody struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
	// Index points at the offending batch item (zero-based) when a
	// /jobs:batch submission fails validation.
	Index *int `json:"index,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// admit is the one submission path behind POST /jobs and POST
// /jobs:batch: refuse while draining, decode a body of at most limit
// bytes into Req (named what in a decode error), hand it to submit with
// the request's X-Submit-Token — the coordinator's idempotency key: a
// retried submission whose first ack was lost returns the jobs already
// accepted instead of running the work twice — and answer 202 with what
// submit returns, 429 for a shed, 409 for a token re-sent with another
// batch length, or a 400 naming the offending batch item and spec field
// when the error carries them.
func admit[Req any](s *Server, w http.ResponseWriter, r *http.Request, limit int64, what string,
	submit func(req Req, token string) (any, error)) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
		return
	}
	var req Req
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding %s: %v", what, err)
		return
	}
	accepted, err := submit(req, r.Header.Get("X-Submit-Token"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, accepted)
	case s.writeShed(w, err):
	case errors.Is(err, errTokenMismatch):
		writeError(w, http.StatusConflict, "%v", err)
	default:
		body := errorBody{Error: err.Error()}
		var batchErr *BatchError
		if errors.As(err, &batchErr) {
			body.Index = &batchErr.Index
		}
		var fieldErr *SpecFieldError
		if errors.As(err, &fieldErr) {
			body.Field = fieldErr.Field
		}
		writeJSON(w, http.StatusBadRequest, body)
	}
}

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	admit(s, w, r, 1<<20, "job spec", func(spec JobSpec, token string) (any, error) {
		job, err := s.manager.SubmitToken(spec, token)
		if err != nil {
			return nil, err
		}
		return job.Snapshot(), nil
	})
}

// writeShed maps admission-control rejections to 429: a global-cap shed
// is priced for the whole service, a per-tenant quota shed for that
// tenant's own queue and weighted fair share. Returns whether it wrote a
// response.
func (s *Server) writeShed(w http.ResponseWriter, err error) bool {
	var quotaErr *sched.QuotaError
	var tenant string
	var wait time.Duration
	switch {
	case errors.As(err, &quotaErr):
		tenant = quotaErr.Tenant
		wait = s.manager.RetryAfterTenant(tenant)
	case errors.Is(err, ErrOverloaded):
		// Shed load instead of queueing unboundedly. Retry-After is
		// priced from the observed evaluation latency EWMA and the queue
		// depth, so clients back off proportionally to the actual
		// backlog.
		wait = s.manager.RetryAfter()
	default:
		return false
	}
	secs := retryAfterSeconds(wait)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, overloadBody{Error: err.Error(), Tenant: tenant, RetryAfterSec: secs})
	return true
}

// batchRequest is the POST /jobs:batch body.
type batchRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// batchResponse is the POST /jobs:batch 202 payload: snapshots
// index-aligned with the submitted specs.
type batchResponse struct {
	Jobs []Snapshot `json:"jobs"`
}

func (s *Server) submitBatch(w http.ResponseWriter, r *http.Request) {
	admit(s, w, r, 8<<20, "batch", func(req batchRequest, token string) (any, error) {
		if len(req.Jobs) == 0 {
			return nil, errors.New("empty batch")
		}
		jobs, err := s.manager.SubmitBatch(req.Jobs, token)
		if err != nil {
			return nil, err
		}
		out := batchResponse{Jobs: make([]Snapshot, len(jobs))}
		for i, job := range jobs {
			snap := job.Snapshot()
			snap.Curve = nil
			snap.Sparkline = ""
			out.Jobs[i] = snap
		}
		return out, nil
	})
}

// tenantsResponse is the GET /tenants payload.
type tenantsResponse struct {
	Tenants []TenantStatus `json:"tenants"`
}

func (s *Server) listTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, tenantsResponse{Tenants: s.manager.Tenants()})
}

// methodBody is one GET /methods entry: the registry's view of an
// optimizer, so clients can discover what is servable and which spec
// fields each method honors.
type methodBody struct {
	Name             string   `json:"name"`
	Aliases          []string `json:"aliases,omitempty"`
	Description      string   `json:"description,omitempty"`
	BudgetAware      bool     `json:"budget_aware"`
	HonorsWorkers    bool     `json:"honors_workers"`
	HonorsMaxConfigs bool     `json:"honors_max_configs"`
	HonorsTrials     bool     `json:"honors_trials"`
}

func (s *Server) listMethods(w http.ResponseWriter, r *http.Request) {
	infos := hpo.Methods()
	out := make([]methodBody, 0, len(infos))
	for _, info := range infos {
		out = append(out, methodBody{
			Name:             info.Name,
			Aliases:          info.Aliases,
			Description:      info.Description,
			BudgetAware:      info.BudgetAware,
			HonorsWorkers:    info.HonorsWorkers,
			HonorsMaxConfigs: info.HonorsMaxConfigs,
			HonorsTrials:     info.HonorsTrials,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// overloadBody is the 429 payload: the error plus the same retry hint as
// the Retry-After header, for clients that only read bodies.
type overloadBody struct {
	Error string `json:"error"`
	// Tenant is set when the shed was a per-tenant quota rejection (the
	// rest of the service may still be accepting other tenants' work).
	Tenant        string `json:"tenant,omitempty"`
	RetryAfterSec int    `json:"retry_after_sec"`
}

// retryAfterSeconds renders a positive whole-second Retry-After value.
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	jobs := s.manager.Jobs()
	out := make([]Snapshot, 0, len(jobs))
	for _, j := range jobs {
		if tenant != "" && j.tenant() != tenant {
			continue
		}
		snap := j.Snapshot()
		// Keep the listing light: curves and stacks are per-job payloads.
		snap.Curve = nil
		snap.Sparkline = ""
		snap.Stack = ""
		out = append(out, snap)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.manager.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	snap := job.Snapshot()
	snap.LastSeq = s.manager.hub.LastSeq(job.ID)
	if v := r.URL.Query().Get("since"); v != "" {
		since, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad since %q", v)
			return
		}
		// Incremental poll: only the curve points past event sequence
		// `since`. The client keeps its own prefix and appends these;
		// last_seq is the cursor for the next poll. The sparkline is
		// omitted — it renders the full curve, not a delta.
		curve := make([]trace.Point, 0)
		for _, ev := range s.manager.hub.Since(job.ID, since) {
			if ev.Type == events.TypeCurvePoint && ev.Point != nil {
				curve = append(curve, *ev.Point)
			}
		}
		snap.Curve = curve
		snap.Sparkline = ""
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.manager.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	// Idempotent on terminal jobs: a repeated DELETE (retried request,
	// lost response) observes the settled state instead of a conflict.
	if terminalStatus(job.Status()) {
		writeJSON(w, http.StatusOK, job.Snapshot())
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusAccepted, job.Snapshot())
}

type healthBody struct {
	// Status is ok, overloaded (pending queue full, POST /jobs shedding
	// with 429) or draining (shutting down, POST /jobs refused with 503).
	Status string `json:"status"`
	// Node is the cluster node name (bhpod -node), empty standalone. The
	// coordinator's prober reads it to confirm it is probing who it thinks.
	Node       string  `json:"node,omitempty"`
	UptimeSec  float64 `json:"uptime_sec"`
	Pending    int     `json:"pending"`
	MaxPending int     `json:"max_pending"`
	// Kernel is the active matmul kernel family (naive/blocked/simd) and
	// CPUFeatures the detected SIMD feature set. Surfaced here so an
	// operator's first probe shows what compute path the node runs.
	Kernel      string `json:"kernel"`
	CPUFeatures string `json:"cpu_features,omitempty"`
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	switch {
	case s.draining.Load():
		status = "draining"
	case s.manager.Overloaded():
		status = "overloaded"
	}
	writeJSON(w, http.StatusOK, healthBody{
		Status:      status,
		Node:        s.manager.cfg.NodeName,
		UptimeSec:   time.Since(s.manager.started).Seconds(),
		Pending:     s.manager.PendingDepth(),
		MaxPending:  s.manager.cfg.MaxPending,
		Kernel:      mat.ActiveKernel().String(),
		CPUFeatures: mat.CPUFeatures(),
	})
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.manager.Metrics())
}
