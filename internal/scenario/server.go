package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/jsonl"
)

// NewServer returns the HTTP face of the runner: the suite/case API
// cmd/hbpsimd serves and cmd/hbpsim submits to (MountRoutes).
func NewServer(r *Runner) *http.ServeMux {
	mux := http.NewServeMux()
	MountRoutes(mux, r.Coordinator)
	return mux
}

// SuiteStatus is the GET /suites/{id} (and POST /suites) body: the
// suite plus snapshots of its runs.
type SuiteStatus struct {
	Suite Suite       `json:"suite"`
	Runs  []RunStatus `json:"runs"`
}

// MountRoutes registers the suite/case API on mux, served from c.
// Both daemons mount it, so one client speaks to either.
//
//	POST   /suites            {"name": ...}            -> suite (optionally with inline "cases")
//	GET    /suites            list suites
//	GET    /suites/{id}       suite + run snapshots
//	POST   /suites/{id}/cases CaseSpec                 -> run (503 + Retry-After when full)
//	GET    /runs/{id}         run snapshot (410 once evicted from the run history)
//	DELETE /runs/{id}         cancel the run (503 + Retry-After when the journal fails)
//	GET    /healthz           liveness + queue depth
//	GET    /readyz            schedulability: 200 only when accepting work
//	GET    /stats             exactly-once accounting counters
func MountRoutes(mux *http.ServeMux, c *Coordinator) {
	h := routes{c}
	mux.HandleFunc("POST /suites", h.createSuite)
	mux.HandleFunc("GET /suites", h.listSuites)
	mux.HandleFunc("GET /suites/{id}", h.getSuite)
	mux.HandleFunc("POST /suites/{id}/cases", h.submitCase)
	mux.HandleFunc("GET /runs/{id}", h.getRun)
	mux.HandleFunc("DELETE /runs/{id}", h.cancelRun)
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /readyz", h.readyz)
	mux.HandleFunc("GET /stats", h.stats)
}

// MountWorkerRoutes registers the worker protocol on mux, served from
// c: what a fleet coordinator (hbpsimd -workers 0) adds to MountRoutes
// so worker processes can lease its runs. Client's Register, Lease,
// Heartbeat and Complete speak it.
//
//	POST   /fleet/workers             WorkerInfo     -> {"id": ...}
//	POST   /fleet/workers/{id}/lease  -> Assignment, or 204 after up to LeaseWait with no work
//	POST   /fleet/heartbeat           heartbeatRequest -> {"directive": ...}
//	POST   /fleet/complete            completeRequest
func MountWorkerRoutes(mux *http.ServeMux, c *Coordinator) {
	h := routes{c}
	mux.HandleFunc("POST /fleet/workers", h.registerWorker)
	mux.HandleFunc("POST /fleet/workers/{id}/lease", h.leaseRun)
	mux.HandleFunc("POST /fleet/heartbeat", h.heartbeat)
	mux.HandleFunc("POST /fleet/complete", h.complete)
}

type routes struct{ c *Coordinator }

func (h routes) createSuite(w http.ResponseWriter, req *http.Request) {
	var spec SuiteSpec
	if !decodeBody(w, req, &spec) {
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
	suite, err := h.c.CreateSuite(spec.Name)
	if err != nil {
		reject(w, err)
		return
	}
	for i := range spec.Cases {
		if _, err := h.c.Submit(suite.ID, spec.Cases[i]); err != nil {
			// Partial admission is visible in the suite state; report
			// the stall so the client can resubmit the remainder.
			w.Header().Set("Retry-After", "1")
			httpError(w, statusFor(err), err)
			return
		}
	}
	got, runs, _ := h.c.GetSuite(suite.ID)
	writeJSON(w, http.StatusCreated, SuiteStatus{Suite: got, Runs: runs})
}

func (h routes) listSuites(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, h.c.Suites())
}

func (h routes) getSuite(w http.ResponseWriter, req *http.Request) {
	suite, runs, ok := h.c.GetSuite(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, errors.New("no such suite"))
		return
	}
	writeJSON(w, http.StatusOK, SuiteStatus{Suite: suite, Runs: runs})
}

func (h routes) submitCase(w http.ResponseWriter, req *http.Request) {
	var spec CaseSpec
	if !decodeBody(w, req, &spec) {
		return
	}
	run, err := h.c.Submit(req.PathValue("id"), spec)
	if err != nil {
		reject(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, run)
}

func (h routes) getRun(w http.ResponseWriter, req *http.Request) {
	run, ok := h.c.GetRun(req.PathValue("id"))
	if !ok {
		h.missing(w, req.PathValue("id"), errors.New("no such run"))
		return
	}
	writeJSON(w, http.StatusOK, run)
}

func (h routes) cancelRun(w http.ResponseWriter, req *http.Request) {
	if err := h.c.Cancel(req.PathValue("id")); err != nil {
		if errors.Is(err, ErrJournal) {
			reject(w, err)
			return
		}
		h.missing(w, req.PathValue("id"), err)
		return
	}
	run, _ := h.c.GetRun(req.PathValue("id"))
	writeJSON(w, http.StatusOK, run)
}

// missing answers a run ID the coordinator does not hold: 410 Gone
// when it was issued and evicted, else 404 with err.
func (h routes) missing(w http.ResponseWriter, id string, err error) {
	if h.c.Evicted(id) {
		httpError(w, http.StatusGone, fmt.Errorf("run %s has left the server's bounded run history; its outcome is in the journal", id))
		return
	}
	httpError(w, http.StatusNotFound, err)
}

func (h routes) healthz(w http.ResponseWriter, req *http.Request) {
	st := h.c.Health()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"queue":     st.QueueDepth,
		"queue_cap": st.QueueCap,
		"workers":   st.Workers,
	})
}

// readyz distinguishes live from schedulable: a draining daemon or a
// full queue answers 503 (with the same body) so a client or smoke
// test can tell "up" from "will accept a run right now".
func (h routes) readyz(w http.ResponseWriter, req *http.Request) {
	st := h.c.Health()
	code := http.StatusOK
	if !st.Ready() {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, st)
}

func (h routes) stats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, h.c.Stats())
}

func (h routes) registerWorker(w http.ResponseWriter, req *http.Request) {
	var info WorkerInfo
	if !decodeBody(w, req, &info) {
		return
	}
	id, err := h.c.Register(info)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (h routes) leaseRun(w http.ResponseWriter, req *http.Request) {
	// Read the (empty) body to its end: only then does the server watch
	// the connection, so a worker that hangs up cancels req.Context()
	// and ends the parked lease.
	io.Copy(io.Discard, http.MaxBytesReader(w, req.Body, jsonl.MaxLine)) //nolint:errcheck // the body carries nothing
	a, err := h.c.LeaseContext(req.Context(), req.PathValue("id"))
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

func (h routes) heartbeat(w http.ResponseWriter, req *http.Request) {
	var hb heartbeatRequest
	if !decodeBody(w, req, &hb) {
		return
	}
	d, err := h.c.Heartbeat(hb.Worker, hb.Run, hb.Dispatch)
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

func (h routes) complete(w http.ResponseWriter, req *http.Request) {
	var cr completeRequest
	if !decodeBody(w, req, &cr) {
		return
	}
	if err := h.c.Complete(cr.Worker, cr.Run, cr.Dispatch, cr.Outcome); err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
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

// reject answers a refused admission; backpressure and a failing
// journal also tell the client when to try again.
func reject(w http.ResponseWriter, err error) {
	code := statusFor(err)
	if code == http.StatusServiceUnavailable && (errors.Is(err, ErrQueueFull) || errors.Is(err, ErrJournal)) {
		w.Header().Set("Retry-After", "1")
	}
	httpError(w, code, err)
}

// decodeBody decodes a JSON request body into v, reading at most
// jsonl.MaxLine bytes: a longer body could never be journaled, so it is
// answered 413 before it is read in full. A malformed body is 400.
// decodeBody reports whether v was decoded; when it was not, the
// answer has been written.
func decodeBody(w http.ResponseWriter, req *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, req.Body, jsonl.MaxLine)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	httpError(w, code, err)
	return false
}

// statusFor maps refusals to HTTP statuses: an entry too large to
// journal is 413 (retrying cannot help); backpressure, shutdown, a
// failing journal and a full worker registry are 503 (retryable); a
// forgotten worker or a never-issued run is 410; anything else — a bad
// spec, an unknown suite — is 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, jsonl.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining), errors.Is(err, ErrJournal), errors.Is(err, ErrFleetFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownWorker), errors.Is(err, ErrUnknownRun):
		return http.StatusGone
	default:
		return http.StatusBadRequest
	}
}

// writeJSON answers with a JSON body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

// httpError answers with the {"error": ...} body every route shares.
func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
