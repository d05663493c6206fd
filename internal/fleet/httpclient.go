package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/scenario"
)

// RemoteCoord is the HTTP implementation of Coord: what a worker
// process (hbpsimd -worker) uses to talk to a remote hbpfleet
// coordinator over the /fleet/ routes.
type RemoteCoord struct {
	// Base is the coordinator's base URL.
	Base string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

// NewRemoteCoord returns a Coord for the coordinator at base.
func NewRemoteCoord(base string) *RemoteCoord {
	return &RemoteCoord{Base: strings.TrimRight(base, "/")}
}

func (r *RemoteCoord) httpClient() *http.Client {
	if r.HTTP != nil {
		return r.HTTP
	}
	return http.DefaultClient
}

// post issues one JSON POST. A nil out discards the body; 204 is
// success with no body.
func (r *RemoteCoord) post(path string, in, out any) (int, error) {
	b, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	resp, err := r.httpClient().Post(r.Base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck // best-effort body
		return resp.StatusCode, fmt.Errorf("fleet: %s: status %d: %s", path, resp.StatusCode, e.Error)
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("fleet: decode %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// Register implements Coord.
func (r *RemoteCoord) Register(info scenario.WorkerInfo) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	if _, err := r.post("/fleet/workers", info, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Lease implements Coord; a 204 means no work right now, and a 410 is
// the coordinator no longer knowing the worker.
func (r *RemoteCoord) Lease(workerID string) (*scenario.Assignment, error) {
	var a scenario.Assignment
	code, err := r.post("/fleet/workers/"+workerID+"/lease", struct{}{}, &a)
	if code == http.StatusGone {
		return nil, fmt.Errorf("fleet: lease as %s: %w", workerID, scenario.ErrUnknownWorker)
	}
	if err != nil {
		return nil, err
	}
	if code == http.StatusNoContent {
		return nil, nil
	}
	return &a, nil
}

// Heartbeat implements Coord.
func (r *RemoteCoord) Heartbeat(workerID, runID string, dispatch int) (scenario.Directive, error) {
	var out struct {
		Directive scenario.Directive `json:"directive"`
	}
	if _, err := r.post("/fleet/heartbeat", heartbeatRequest{Worker: workerID, Run: runID, Dispatch: dispatch}, &out); err != nil {
		return scenario.DirectiveAbort, err
	}
	return out.Directive, nil
}

// Complete implements Coord.
func (r *RemoteCoord) Complete(workerID, runID string, dispatch int, outcome scenario.Outcome) error {
	_, err := r.post("/fleet/complete", completeRequest{Worker: workerID, Run: runID, Dispatch: dispatch, Outcome: outcome}, nil)
	return err
}
