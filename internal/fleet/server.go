package fleet

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/scenario"
)

// Server is the coordinator's HTTP face. The client-facing half
// mirrors the scenario daemon's suite/case API exactly, so
// scenario.Client (and therefore cmd/hbpsim) submits to a fleet
// coordinator the same way it submits to a single daemon; the
// worker-facing half lives under /fleet/.
//
//	POST   /suites              {"name": ...}        -> suite (inline "cases" ok)
//	GET    /suites              list suites
//	GET    /suites/{id}         suite + run snapshots
//	POST   /suites/{id}/cases   CaseSpec             -> run (503 + Retry-After when full)
//	GET    /runs/{id}           run snapshot (with fleet position)
//	DELETE /runs/{id}           cancel the run
//	GET    /healthz             liveness + queue depth
//	GET    /readyz              schedulability
//	GET    /stats               exactly-once accounting counters
//
//	POST   /fleet/workers             WorkerInfo     -> {"id": ...}
//	POST   /fleet/workers/{id}/lease  -> Assignment, or 204 when no work
//	POST   /fleet/heartbeat           heartbeatRequest -> {"directive": ...}
//	POST   /fleet/complete            completeRequest
type Server struct {
	coord *Coordinator
	mux   *http.ServeMux
}

// NewServer wires the routes.
func NewServer(c *Coordinator) *Server {
	s := &Server{coord: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /suites", s.createSuite)
	s.mux.HandleFunc("GET /suites", s.listSuites)
	s.mux.HandleFunc("GET /suites/{id}", s.getSuite)
	s.mux.HandleFunc("POST /suites/{id}/cases", s.submitCase)
	s.mux.HandleFunc("GET /runs/{id}", s.getRun)
	s.mux.HandleFunc("DELETE /runs/{id}", s.cancelRun)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	s.mux.HandleFunc("GET /stats", s.getStats)
	s.mux.HandleFunc("POST /fleet/workers", s.registerWorker)
	s.mux.HandleFunc("POST /fleet/workers/{id}/lease", s.leaseRun)
	s.mux.HandleFunc("POST /fleet/heartbeat", s.heartbeat)
	s.mux.HandleFunc("POST /fleet/complete", s.complete)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mux.ServeHTTP(w, req)
}

// SuiteStatus matches the scenario server's body shape; RunStatus
// embeds scenario.Run, so scenario.Client decodes it unchanged.
type SuiteStatus struct {
	Suite scenario.Suite `json:"suite"`
	Runs  []RunStatus    `json:"runs"`
}

func (s *Server) createSuite(w http.ResponseWriter, req *http.Request) {
	var spec scenario.SuiteSpec
	if err := json.NewDecoder(req.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if len(spec.Cases) > 0 {
		if err := spec.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	} else if spec.Name == "" {
		httpError(w, http.StatusBadRequest, errors.New("suite has no name"))
		return
	}
	suite, err := s.coord.CreateSuite(spec.Name)
	if err != nil {
		reject(w, err)
		return
	}
	for i := range spec.Cases {
		if _, err := s.coord.Submit(suite.ID, spec.Cases[i]); err != nil {
			w.Header().Set("Retry-After", "1")
			httpError(w, statusFor(err), err)
			return
		}
	}
	got, runs, _ := s.coord.GetSuite(suite.ID)
	writeJSON(w, http.StatusCreated, SuiteStatus{Suite: got, Runs: runs})
}

func (s *Server) listSuites(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.Suites())
}

func (s *Server) getSuite(w http.ResponseWriter, req *http.Request) {
	suite, runs, ok := s.coord.GetSuite(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such suite"))
		return
	}
	writeJSON(w, http.StatusOK, SuiteStatus{Suite: suite, Runs: runs})
}

func (s *Server) submitCase(w http.ResponseWriter, req *http.Request) {
	var spec scenario.CaseSpec
	if err := json.NewDecoder(req.Body).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	status, err := s.coord.Submit(req.PathValue("id"), spec)
	if err != nil {
		reject(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, status)
}

func (s *Server) getRun(w http.ResponseWriter, req *http.Request) {
	status, ok := s.coord.GetRun(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such run"))
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) cancelRun(w http.ResponseWriter, req *http.Request) {
	if err := s.coord.Cancel(req.PathValue("id")); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	status, _ := s.coord.GetRun(req.PathValue("id"))
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) healthz(w http.ResponseWriter, req *http.Request) {
	h := s.coord.Health()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"queue":     h.QueueDepth,
		"queue_cap": h.QueueCap,
		"workers":   h.Workers,
	})
}

func (s *Server) readyz(w http.ResponseWriter, req *http.Request) {
	h := s.coord.Health()
	code := http.StatusOK
	if !h.Ready() {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, h)
}

func (s *Server) getStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.Stats())
}

// ---- worker routes ----

func (s *Server) registerWorker(w http.ResponseWriter, req *http.Request) {
	var info WorkerInfo
	if err := json.NewDecoder(req.Body).Decode(&info); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.coord.Register(info)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (s *Server) leaseRun(w http.ResponseWriter, req *http.Request) {
	a, err := s.coord.Lease(req.PathValue("id"))
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	if a == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, a)
}

// heartbeatRequest identifies the lease being renewed.
type heartbeatRequest struct {
	Worker   string `json:"worker"`
	Run      string `json:"run"`
	Dispatch int    `json:"dispatch"`
}

func (s *Server) heartbeat(w http.ResponseWriter, req *http.Request) {
	var hb heartbeatRequest
	if err := json.NewDecoder(req.Body).Decode(&hb); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	d, err := s.coord.Heartbeat(hb.Worker, hb.Run, hb.Dispatch)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]Directive{"directive": d})
}

// completeRequest carries one terminal report.
type completeRequest struct {
	Worker   string  `json:"worker"`
	Run      string  `json:"run"`
	Dispatch int     `json:"dispatch"`
	Outcome  Outcome `json:"outcome"`
}

func (s *Server) complete(w http.ResponseWriter, req *http.Request) {
	var cr completeRequest
	if err := json.NewDecoder(req.Body).Decode(&cr); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.coord.Complete(cr.Worker, cr.Run, cr.Dispatch, cr.Outcome); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// reject answers a refused admission; backpressure and a failing
// journal also tell the client when to try again.
func reject(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, errJournal) {
		w.Header().Set("Retry-After", "1")
	}
	httpError(w, statusFor(err), err)
}

// statusFor maps coordinator errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining), errors.Is(err, ErrFleetFull), errors.Is(err, errJournal):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownWorker), errors.Is(err, ErrUnknownRun):
		return http.StatusGone
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
