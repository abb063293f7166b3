package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/pool"
)

// Server is the HTTP face of an Engine — the handler cmd/chimerad
// serves. The API:
//
//	POST /v1/jobs            submit a JobSpec; 202 + JobView
//	GET  /v1/jobs            list kept jobs (submission order)
//	GET  /v1/jobs/{id}       poll one job
//	GET  /v1/jobs/{id}/wait  long-poll until terminal (or ?timeout=)
//	PUT  /v1/jobs/{id}/log   stream a CHIMLOG2 upload into an
//	                         awaiting-log replay-verify job
//	GET  /v1/jobs/{id}/log   stream a job's CHIMLOG2 spool out
//	GET  /metrics            Prometheus text exposition
//	GET  /metrics.json       engine metrics (internal/obs ServiceMetrics)
//	GET  /debug/traces       recent job traces, newest first
//	GET  /debug/traces/{id}  one retained trace by trace ID or job ID
//	GET  /healthz            liveness + draining flag
//
// Logs stream through io.Copy in both directions: the server never
// buffers a whole log in memory.
type Server struct {
	eng *Engine
	mux *http.ServeMux
}

// NewServer wraps an engine in its HTTP API.
func NewServer(eng *Engine) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.get)
	s.mux.HandleFunc("GET /v1/jobs/{id}/wait", s.wait)
	s.mux.HandleFunc("PUT /v1/jobs/{id}/log", s.putLog)
	s.mux.HandleFunc("GET /v1/jobs/{id}/log", s.getLog)
	s.mux.HandleFunc("GET /metrics", s.prometheus)
	s.mux.HandleFunc("GET /metrics.json", s.metrics)
	s.mux.HandleFunc("GET /debug/traces", s.traces)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.trace)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	spec := new(JobSpec)
	body := http.MaxBytesReader(w, r.Body, 32<<20)
	if err := json.NewDecoder(body).Decode(spec); err != nil {
		httpError(w, http.StatusBadRequest, "decode job spec: %v", err)
		return
	}
	job, err := s.eng.Submit(spec)
	switch {
	case errors.Is(err, pool.ErrDraining):
		httpError(w, http.StatusServiceUnavailable, "draining: %v", err)
		return
	case errors.Is(err, pool.ErrFull):
		httpError(w, http.StatusTooManyRequests, "overloaded: %v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.View())
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.eng.Views()})
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.eng.Job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %s", id)
		return nil, false
	}
	return job, true
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, job.View())
	}
}

// wait long-polls: it returns the job view as soon as the job is
// terminal, or the current view when the timeout (default 30s, capped at
// 5m) or the client disconnect arrives first.
func (s *Server) wait(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	timeout := 30 * time.Second
	if q := r.URL.Query().Get("timeout"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad timeout %q: %v", q, err)
			return
		}
		timeout = min(d, 5*time.Minute)
	}
	select {
	case <-job.Done():
	case <-time.After(timeout):
	case <-r.Context().Done():
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) putLog(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n, err := s.eng.AttachLog(id, r.Body)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrUnknownJob):
			status = http.StatusNotFound
		case errors.Is(err, ErrNotAwaitingLog):
			status = http.StatusConflict
		}
		httpError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"log_bytes": n})
}

func (s *Server) getLog(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.job(w, r); !ok {
		return
	}
	f, err := s.eng.OpenLog(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, "no log spool: %v", err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	n, _ := io.Copy(w, f)
	s.eng.tel.AddSpoolBytes(0, n)
}

func (s *Server) prometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(s.eng.Metrics().Prometheus())
}

func (s *Server) traces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.eng.Traces()})
}

func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.eng.Trace(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no retained trace %s", id)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	b, err := s.eng.Metrics().Marshal()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": s.eng.Draining()})
}
