package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/jsonl"
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
	MountClientRoutes[Run](s.mux, r)
	s.mux.HandleFunc("POST /runs/{id}/resubmit", s.resubmitRun)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /readyz", s.readyz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mux.ServeHTTP(w, req)
}

// Backend is the supervisor behind the suite/case client routes: the
// local Runner, or a fleet coordinator. S is its run snapshot type —
// Run, or a struct embedding it, so Client decodes either daemon's
// bodies.
type Backend[S any] interface {
	CreateSuite(name string) (*Suite, error)
	Submit(suiteID string, spec CaseSpec) (S, error)
	Cancel(runID string) error
	GetRun(id string) (S, bool)
	GetSuite(id string) (Suite, []S, bool)
	Suites() []Suite
}

// Evicter is implemented by a Backend that keeps a bounded run
// history. Evicted reports whether id names a run the backend issued
// and has since dropped from memory; the client routes answer such an
// ID 410 Gone, pointing at the journal, where an ID never issued is
// 404.
type Evicter interface {
	Evicted(id string) bool
}

// SuiteStatusOf is the GET /suites/{id} (and POST /suites) body: the
// suite plus snapshots of its runs.
type SuiteStatusOf[S any] struct {
	Suite Suite `json:"suite"`
	Runs  []S   `json:"runs"`
}

// SuiteStatus is the body as Client decodes it.
type SuiteStatus = SuiteStatusOf[Run]

// MountClientRoutes registers the six client routes of the suite/case
// API (the first six of Server's route table) on mux, served from b.
// Both daemons mount them, so one client speaks to either.
func MountClientRoutes[S any](mux *http.ServeMux, b Backend[S]) {
	h := clientRoutes[S]{b}
	mux.HandleFunc("POST /suites", h.createSuite)
	mux.HandleFunc("GET /suites", h.listSuites)
	mux.HandleFunc("GET /suites/{id}", h.getSuite)
	mux.HandleFunc("POST /suites/{id}/cases", h.submitCase)
	mux.HandleFunc("GET /runs/{id}", h.getRun)
	mux.HandleFunc("DELETE /runs/{id}", h.cancelRun)
}

type clientRoutes[S any] struct{ b Backend[S] }

func (h clientRoutes[S]) createSuite(w http.ResponseWriter, req *http.Request) {
	var spec SuiteSpec
	if !DecodeBody(w, req, &spec) {
		return
	}
	// A bare {"name": ...} creates an empty suite for incremental
	// submission; inline cases are validated and submitted atomically
	// up front.
	if len(spec.Cases) > 0 {
		if err := spec.Validate(); err != nil {
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
	} else if spec.Name == "" {
		HTTPError(w, http.StatusBadRequest, errors.New("suite has no name"))
		return
	}
	suite, err := h.b.CreateSuite(spec.Name)
	if err != nil {
		reject(w, err)
		return
	}
	for i := range spec.Cases {
		if _, err := h.b.Submit(suite.ID, spec.Cases[i]); err != nil {
			// Partial admission is visible in the suite state; report
			// the stall so the client can resubmit the remainder.
			w.Header().Set("Retry-After", "1")
			HTTPError(w, StatusFor(err), err)
			return
		}
	}
	got, runs, _ := h.b.GetSuite(suite.ID)
	WriteJSON(w, http.StatusCreated, SuiteStatusOf[S]{Suite: got, Runs: runs})
}

func (h clientRoutes[S]) listSuites(w http.ResponseWriter, req *http.Request) {
	WriteJSON(w, http.StatusOK, h.b.Suites())
}

func (h clientRoutes[S]) getSuite(w http.ResponseWriter, req *http.Request) {
	suite, runs, ok := h.b.GetSuite(req.PathValue("id"))
	if !ok {
		HTTPError(w, http.StatusNotFound, errors.New("no such suite"))
		return
	}
	WriteJSON(w, http.StatusOK, SuiteStatusOf[S]{Suite: suite, Runs: runs})
}

func (h clientRoutes[S]) submitCase(w http.ResponseWriter, req *http.Request) {
	var spec CaseSpec
	if !DecodeBody(w, req, &spec) {
		return
	}
	run, err := h.b.Submit(req.PathValue("id"), spec)
	if err != nil {
		reject(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, run)
}

func (h clientRoutes[S]) getRun(w http.ResponseWriter, req *http.Request) {
	run, ok := h.b.GetRun(req.PathValue("id"))
	if !ok {
		h.missing(w, req.PathValue("id"), errors.New("no such run"))
		return
	}
	WriteJSON(w, http.StatusOK, run)
}

func (h clientRoutes[S]) cancelRun(w http.ResponseWriter, req *http.Request) {
	if err := h.b.Cancel(req.PathValue("id")); err != nil {
		h.missing(w, req.PathValue("id"), err)
		return
	}
	run, _ := h.b.GetRun(req.PathValue("id"))
	WriteJSON(w, http.StatusOK, run)
}

// missing answers a run ID the backend does not hold: 410 Gone when
// it was issued and evicted, else 404 with err.
func (h clientRoutes[S]) missing(w http.ResponseWriter, id string, err error) {
	if e, ok := h.b.(Evicter); ok && e.Evicted(id) {
		HTTPError(w, http.StatusGone, fmt.Errorf("run %s has left the server's bounded run history; its outcome is in the journal", id))
		return
	}
	HTTPError(w, http.StatusNotFound, err)
}

// NewHTTPServer is the http.Server both daemons serve h with. It bounds
// how long a connection may take to send its request headers and how
// long an idle keep-alive connection is held, so a client that opens
// connections and sends nothing cannot pin them. There is no write
// timeout: it would cut the fleet's parked lease, which answers only
// after its wait.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func (s *Server) resubmitRun(w http.ResponseWriter, req *http.Request) {
	run, err := s.runner.Resubmit(req.PathValue("id"))
	if err != nil {
		reject(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, run)
}

func (s *Server) healthz(w http.ResponseWriter, req *http.Request) {
	depth, capacity := s.runner.QueueDepth()
	WriteJSON(w, http.StatusOK, map[string]any{
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
	WriteJSON(w, code, h)
}

// reject answers a refused admission; backpressure and a failing
// journal also tell the client when to try again.
func reject(w http.ResponseWriter, err error) {
	code := StatusFor(err)
	if code == http.StatusServiceUnavailable && (errors.Is(err, ErrQueueFull) || errors.Is(err, ErrJournal)) {
		w.Header().Set("Retry-After", "1")
	}
	HTTPError(w, code, err)
}

// DecodeBody decodes a JSON request body into v, reading at most
// jsonl.MaxLine bytes: a longer body could never be journaled, so it is
// answered 413 before it is read in full. A malformed body is 400.
// DecodeBody reports whether v was decoded; when it was not, the
// answer has been written.
func DecodeBody(w http.ResponseWriter, req *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, req.Body, jsonl.MaxLine)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	HTTPError(w, code, err)
	return false
}

// StatusFor maps admission errors to HTTP statuses: an entry too large
// to journal is 413 (retrying cannot help); backpressure, shutdown and
// a failing journal are 503 (retryable); anything else — a bad spec,
// an unknown suite — is 400.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, jsonl.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining), errors.Is(err, ErrJournal):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// WriteJSON answers with a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

// HTTPError answers with the {"error": ...} body every route shares.
func HTTPError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}
