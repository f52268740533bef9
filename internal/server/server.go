// Package server is the HTTP face of the job service: a JSON API over
// jobs.Manager (submit, get, list, cancel, result), NDJSON streaming of
// a job's telemetry as it runs, and the operational endpoints a daemon
// needs (/healthz, /readyz, Prometheus-text /metrics).
//
// The API maps the manager's failure modes onto conventional statuses:
// a full queue is 429 (backpressure, the client should retry later), an
// unknown job 404, a result requested before completion 409, shutdown
// 503. Every error body is a one-field JSON object {"error": "..."}.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/results"
	"repro/internal/telemetry"
)

// Options configures a Server; the zero value selects the defaults.
type Options struct {
	// StreamInterval is the cadence of progress frames on the NDJSON
	// stream while a job runs; 0 means 500ms.
	StreamInterval time.Duration
	// Clock stamps the metrics rate window; nil means time.Now.
	Clock func() time.Time
	// Results is the analytics table POST /query answers from — the same
	// store the manager ingests done jobs into. Nil disables the endpoint
	// (503), for deployments that run the manager without analytics.
	Results *results.Store
	// Cluster, when set, makes this server the coordinator control
	// plane: worker register/heartbeat endpoints, the /cluster status
	// document, and per-node Prometheus series.
	Cluster *cluster.Coordinator
	// Worker, when set, exposes the slice lease endpoint this node
	// serves a coordinator from.
	Worker *cluster.Worker
}

// Server serves the job API for one jobs.Manager.
type Server struct {
	mgr  *jobs.Manager
	opts Options
	mux  *http.ServeMux

	// ready gates /readyz: the daemon flips it false when shutdown
	// begins so load balancers drain before the listener closes.
	ready atomic.Bool

	// scrape state for the terminal-slots/s gauge; see metrics.go.
	scrape scrapeState

	// drain estimates the job-completion rate to stamp Retry-After on
	// backpressure responses; see drain.go.
	drain drainEstimator
}

// New builds a Server over the manager. The server starts ready.
func New(mgr *jobs.Manager, opts Options) *Server {
	if opts.StreamInterval <= 0 {
		opts.StreamInterval = 500 * time.Millisecond
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	s := &Server{mgr: mgr, opts: opts, mux: http.NewServeMux()}
	s.ready.Store(true)

	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if opts.Cluster != nil {
		s.mux.HandleFunc("POST /api/v1/cluster/register", s.handleClusterRegister)
		s.mux.HandleFunc("POST /api/v1/cluster/heartbeat", s.handleClusterHeartbeat)
		s.mux.HandleFunc("GET /cluster", s.handleClusterStatus)
	}
	if opts.Worker != nil {
		s.mux.Handle("POST /api/v1/slices", opts.Worker.SliceHandler())
	}
	return s
}

// maxBodyBytes caps every request body the server reads: specs, queries,
// cluster messages and slice requests are all small JSON documents.
const maxBodyBytes = 1 << 20

// ServeHTTP implements http.Handler. It caps the request body at
// maxBodyBytes before any handler reads it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// SetReady flips the /readyz signal; the daemon calls SetReady(false)
// when graceful shutdown begins.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// writeJSON writes v as an indented JSON document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps a manager error onto its HTTP status and a JSON body.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrShuttingDown), errors.Is(err, jobs.ErrRecovering):
		status = http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, jobs.ErrNotDone):
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": fmt.Sprintf("invalid job spec: %v", err)})
		return
	}
	v, err := s.mgr.Submit(spec)
	if err != nil {
		if errors.Is(err, jobs.ErrQueueFull) {
			// Backpressure: tell the client when a queue slot is likely
			// to free up, from the observed job-completion rate.
			s.drain.observe(s.opts.Clock(), terminalJobs(s.mgr.Stats()))
			w.Header().Set("Retry-After", strconv.Itoa(s.drain.retryAfter()))
			writeError(w, err)
			return
		}
		if errors.Is(err, jobs.ErrShuttingDown) || errors.Is(err, jobs.ErrRecovering) {
			writeError(w, err)
			return
		}
		// Validation failures are the client's fault.
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"schema": jobs.SpecSchema,
		"jobs":   s.mgr.List(),
	})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	v, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	raw, err := s.mgr.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	// The stored bytes are the determinism guarantee: they are written
	// verbatim, never re-encoded, so the client receives exactly what
	// pcnsim -json would have printed for the same spec.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

// handleQuery answers an analytics query against the results table. The
// response is deterministic for a given table content (canonical row
// order, sorted groups — see the results package), so two daemons over
// the same completed sweep answer byte-identically; the CI restart leg
// holds pcnserve to that across a journal-replay reboot.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.opts.Results == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"error": "results store not configured"})
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": fmt.Sprintf("reading query request: %v", err)})
		return
	}
	req, err := results.DecodeRequest(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	resp, err := s.opts.Results.Query(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// Journal replay runs before the manager accepts work: a freshly
	// restarted daemon serves traffic (health, metrics, job reads) but
	// reports itself unready, as "recovering" rather than "draining", so
	// an operator can tell a booting instance from a stopping one.
	if s.mgr.Recovering() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "recovering")
		return
	}
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// StreamFrame is one NDJSON line of a job stream. Frames come in three
// types, all carrying the job id and lifecycle state at emission time:
//
//   - "state": emitted once when the stream opens and once per observed
//     state change.
//   - "progress": emitted every StreamInterval while the job runs, with
//     the live telemetry snapshot (terminal-slots completed and the
//     per-shard positions).
//   - "result": the final frame. For a done job it embeds the full
//     report document; for failed jobs it carries the error.
type StreamFrame struct {
	Type  string     `json:"type"`
	Job   string     `json:"job"`
	State jobs.State `json:"state"`

	TerminalSlots      int64                   `json:"terminal_slots,omitempty"`
	TotalTerminalSlots int64                   `json:"total_terminal_slots,omitempty"`
	Shards             []telemetry.ShardStatus `json:"shards,omitempty"`

	Error  string          `json:"error,omitempty"`
	Report json.RawMessage `json:"report,omitempty"`
}

// handleStream serves the job's life as newline-delimited JSON: a state
// frame now, progress frames on a ticker while it runs, state frames on
// transitions, and a final result frame when it lands — then the
// connection closes. A client disconnect just stops the stream; the job
// itself is unaffected.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, err := s.mgr.Get(id)
	if err != nil {
		writeError(w, err)
		return
	}
	done, err := s.mgr.Done(id)
	if err != nil {
		writeError(w, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(f StreamFrame) bool {
		if err := enc.Encode(f); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	last := v.State
	if !emit(StreamFrame{Type: "state", Job: id, State: v.State}) {
		return
	}
	ticker := time.NewTicker(s.opts.StreamInterval)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			s.emitResult(id, emit)
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
			v, err := s.mgr.Get(id)
			if err != nil {
				return
			}
			if v.State != last {
				last = v.State
				if !emit(StreamFrame{Type: "state", Job: id, State: v.State}) {
					return
				}
			}
			if v.State == jobs.StateRunning {
				ok := emit(StreamFrame{
					Type:               "progress",
					Job:                id,
					State:              v.State,
					TerminalSlots:      v.TerminalSlots,
					TotalTerminalSlots: v.TotalTerminalSlots,
					Shards:             v.Shards,
				})
				if !ok {
					return
				}
			}
		}
	}
}

// emitResult writes the terminal frame for a finished job.
func (s *Server) emitResult(id string, emit func(StreamFrame) bool) {
	v, err := s.mgr.Get(id)
	if err != nil {
		return
	}
	f := StreamFrame{
		Type:               "result",
		Job:                id,
		State:              v.State,
		TerminalSlots:      v.TerminalSlots,
		TotalTerminalSlots: v.TotalTerminalSlots,
		Error:              v.Error,
	}
	if v.State == jobs.StateDone {
		if raw, err := s.mgr.Result(id); err == nil {
			f.Report = raw
		}
	}
	emit(f)
}
