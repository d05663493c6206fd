package fleet

import (
	"io"
	"net/http"

	"repro/internal/jsonl"
	"repro/internal/scenario"
)

// Server is the coordinator's HTTP face: the scenario daemon's route
// table (scenario.MountRoutes — the suite/case API plus healthz,
// readyz and stats), so scenario.Client (and therefore cmd/hbpsim)
// submits to a fleet coordinator the same way it submits to a single
// daemon, and the worker protocol under /fleet/.
//
//	POST   /fleet/workers             WorkerInfo     -> {"id": ...}
//	POST   /fleet/workers/{id}/lease  -> Assignment, or 204 after up to 50 ms with no work
//	POST   /fleet/heartbeat           heartbeatRequest -> {"directive": ...}
//	POST   /fleet/complete            completeRequest
type Server struct {
	coord *scenario.Coordinator
	mux   *http.ServeMux
}

// NewServer wires the routes.
func NewServer(c *scenario.Coordinator) *Server {
	s := &Server{coord: c, mux: http.NewServeMux()}
	scenario.MountRoutes(s.mux, c)
	s.mux.HandleFunc("POST /fleet/workers", s.registerWorker)
	s.mux.HandleFunc("POST /fleet/workers/{id}/lease", s.leaseRun)
	s.mux.HandleFunc("POST /fleet/heartbeat", s.heartbeat)
	s.mux.HandleFunc("POST /fleet/complete", s.complete)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mux.ServeHTTP(w, req)
}

// ---- worker routes ----

func (s *Server) registerWorker(w http.ResponseWriter, req *http.Request) {
	var info scenario.WorkerInfo
	if !scenario.DecodeBody(w, req, &info) {
		return
	}
	id, err := s.coord.Register(info)
	if err != nil {
		scenario.HTTPError(w, scenario.StatusFor(err), err)
		return
	}
	scenario.WriteJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (s *Server) leaseRun(w http.ResponseWriter, req *http.Request) {
	// Read the (empty) body to its end: only then does the server watch
	// the connection, so a worker that hangs up cancels req.Context()
	// and ends the parked lease.
	io.Copy(io.Discard, http.MaxBytesReader(w, req.Body, jsonl.MaxLine)) //nolint:errcheck // the body carries nothing
	a, err := s.coord.LeaseContext(req.Context(), req.PathValue("id"))
	if err != nil {
		scenario.HTTPError(w, scenario.StatusFor(err), err)
		return
	}
	if a == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	scenario.WriteJSON(w, http.StatusOK, a)
}

// heartbeatRequest identifies the lease being renewed.
type heartbeatRequest struct {
	Worker   string `json:"worker"`
	Run      string `json:"run"`
	Dispatch int    `json:"dispatch"`
}

func (s *Server) heartbeat(w http.ResponseWriter, req *http.Request) {
	var hb heartbeatRequest
	if !scenario.DecodeBody(w, req, &hb) {
		return
	}
	d, err := s.coord.Heartbeat(hb.Worker, hb.Run, hb.Dispatch)
	if err != nil {
		scenario.HTTPError(w, scenario.StatusFor(err), err)
		return
	}
	scenario.WriteJSON(w, http.StatusOK, map[string]scenario.Directive{"directive": d})
}

// completeRequest carries one terminal report.
type completeRequest struct {
	Worker   string           `json:"worker"`
	Run      string           `json:"run"`
	Dispatch int              `json:"dispatch"`
	Outcome  scenario.Outcome `json:"outcome"`
}

func (s *Server) complete(w http.ResponseWriter, req *http.Request) {
	var cr completeRequest
	if !scenario.DecodeBody(w, req, &cr) {
		return
	}
	if err := s.coord.Complete(cr.Worker, cr.Run, cr.Dispatch, cr.Outcome); err != nil {
		scenario.HTTPError(w, scenario.StatusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
