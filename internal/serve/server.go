package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"time"
)

// Server is the HTTP/JSON front end over a Manager.
//
//	POST   /v1/jobs      submit a JobSpec  → 202 Status | 400 | 429 | 503
//	GET    /v1/jobs      list all jobs
//	GET    /v1/jobs/{id} job status        → 200 | 404
//	DELETE /v1/jobs/{id} cancel            → 200 | 404
//	GET    /healthz      liveness ("ok" / "draining")
//	GET    /debug/vars   expvar-style counters + runtime stats
//	GET    /debug/pprof/ net/http/pprof profiles
type Server struct {
	m     *Manager
	start time.Time
}

// NewServer wraps a manager.
func NewServer(m *Manager) *Server {
	return &Server{m: m, start: time.Now()}
}

// Manager exposes the underlying manager (for drain on shutdown).
func (s *Server) Manager() *Manager { return s.m }

// MaxSpecBytes bounds a submit body: an inline netlist plus slack.
// The cluster layer applies the same bound to its submit endpoints.
const MaxSpecBytes = maxInlineNetlist + 64*1024

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.m.List())
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(http.MaxBytesReader(w, r.Body, MaxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	st, err := s.m.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Backpressure: the caller should retry later; the bound is
		// what keeps the daemon alive under overload.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
	default:
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		http.NotFound(w, r)
		return
	}
	var (
		st  Status
		err error
	)
	switch r.Method {
	case http.MethodGet:
		st, err = s.m.Get(id)
	case http.MethodDelete:
		st, err = s.m.Cancel(id)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if errors.Is(err, ErrNotFound) {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.m.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}

// VarsDoc is the expvar-style introspection document served at
// /debug/vars: manager counters plus the runtime stats that matter
// under sustained load. The cluster layer embeds it and appends its
// own section, so clustered and single-process daemons stay
// field-compatible.
type VarsDoc struct {
	CounterSnapshot
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Goroutines     int     `json:"goroutines"`
	HeapAllocBytes uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64  `json:"heap_sys_bytes"`
	NumGC          uint32  `json:"num_gc"`
}

// Vars snapshots the introspection document.
func (s *Server) Vars() VarsDoc {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return VarsDoc{
		CounterSnapshot: s.m.Counters(),
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Goroutines:      runtime.NumGoroutine(),
		HeapAllocBytes:  ms.HeapAlloc,
		HeapSysBytes:    ms.HeapSys,
		NumGC:           ms.NumGC,
	}
}

// handleVars serves the introspection document.
func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Vars())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
