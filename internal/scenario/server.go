package scenario

import (
	"encoding/json"
	"errors"
	"net/http"
)

// Server is the HTTP face of the runner — the suite/case API
// cmd/hbpsimd serves and cmd/hbpsim submits to.
//
//	POST   /suites            {"name": ...}            -> suite (optionally with inline "cases")
//	GET    /suites            list suites
//	GET    /suites/{id}       suite + run snapshots
//	POST   /suites/{id}/cases CaseSpec                 -> run (503 + Retry-After when full)
//	GET    /runs/{id}         run snapshot
//	DELETE /runs/{id}         cancel the run
//	POST   /runs/{id}/resubmit re-queue an interrupted run
//	GET    /healthz           liveness + queue depth
//	GET    /readyz            schedulability: 200 only when accepting work
type Server struct {
	runner *Runner
	mux    *http.ServeMux
}

// NewServer wires the routes.
func NewServer(r *Runner) *Server {
	s := &Server{runner: r, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /suites", s.createSuite)
	s.mux.HandleFunc("GET /suites", s.listSuites)
	s.mux.HandleFunc("GET /suites/{id}", s.getSuite)
	s.mux.HandleFunc("POST /suites/{id}/cases", s.submitCase)
	s.mux.HandleFunc("GET /runs/{id}", s.getRun)
	s.mux.HandleFunc("DELETE /runs/{id}", s.cancelRun)
	s.mux.HandleFunc("POST /runs/{id}/resubmit", s.resubmitRun)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mux.ServeHTTP(w, req)
}

// SuiteStatus is the GET /suites/{id} (and POST /suites) body: the
// suite plus snapshots of its runs.
type SuiteStatus struct {
	Suite Suite `json:"suite"`
	Runs  []Run `json:"runs"`
}

func (s *Server) createSuite(w http.ResponseWriter, req *http.Request) {
	var spec SuiteSpec
	if err := json.NewDecoder(req.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// A bare {"name": ...} creates an empty suite for incremental
	// submission; inline cases are validated and submitted atomically
	// up front.
	if len(spec.Cases) > 0 {
		if err := spec.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	} else if spec.Name == "" {
		httpError(w, http.StatusBadRequest, errors.New("suite has no name"))
		return
	}
	suite, err := s.runner.CreateSuite(spec.Name)
	if err != nil {
		reject(w, err)
		return
	}
	for i := range spec.Cases {
		if _, err := s.runner.Submit(suite.ID, spec.Cases[i]); err != nil {
			// Partial admission is visible in the suite state; report
			// the stall so the client can resubmit the remainder.
			w.Header().Set("Retry-After", "1")
			httpError(w, statusFor(err), err)
			return
		}
	}
	got, runs, _ := s.runner.GetSuite(suite.ID)
	writeJSON(w, http.StatusCreated, SuiteStatus{Suite: got, Runs: runs})
}

func (s *Server) listSuites(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, s.runner.Suites())
}

func (s *Server) getSuite(w http.ResponseWriter, req *http.Request) {
	suite, runs, ok := s.runner.GetSuite(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such suite"))
		return
	}
	writeJSON(w, http.StatusOK, SuiteStatus{Suite: suite, Runs: runs})
}

func (s *Server) submitCase(w http.ResponseWriter, req *http.Request) {
	var spec CaseSpec
	if err := json.NewDecoder(req.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	run, err := s.runner.Submit(req.PathValue("id"), spec)
	if err != nil {
		reject(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.runner.snapshot(run))
}

func (s *Server) getRun(w http.ResponseWriter, req *http.Request) {
	run, ok := s.runner.GetRun(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such run"))
		return
	}
	writeJSON(w, http.StatusOK, run)
}

func (s *Server) cancelRun(w http.ResponseWriter, req *http.Request) {
	if err := s.runner.Cancel(req.PathValue("id")); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	run, _ := s.runner.GetRun(req.PathValue("id"))
	writeJSON(w, http.StatusOK, run)
}

func (s *Server) resubmitRun(w http.ResponseWriter, req *http.Request) {
	run, err := s.runner.Resubmit(req.PathValue("id"))
	if err != nil {
		reject(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.runner.snapshot(run))
}

func (s *Server) healthz(w http.ResponseWriter, req *http.Request) {
	depth, capacity := s.runner.QueueDepth()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"queue":     depth,
		"queue_cap": capacity,
	})
}

// readyz distinguishes live from schedulable: a draining daemon or a
// full queue answers 503 (with the same body) so a fleet coordinator
// or smoke test can tell "up" from "will accept a run right now".
func (s *Server) readyz(w http.ResponseWriter, req *http.Request) {
	h := s.runner.Health()
	code := http.StatusOK
	if !h.Ready() {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, h)
}

// reject answers a refused admission; backpressure and a failing
// journal also tell the client when to try again.
func reject(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, errJournal) {
		w.Header().Set("Retry-After", "1")
	}
	httpError(w, statusFor(err), err)
}

// statusFor maps runner errors to HTTP statuses: backpressure,
// shutdown and a failing journal are 503 (retryable), bad specs are
// 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining), errors.Is(err, errJournal):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
