package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client talks to a scenario daemon (hbpsimd) or a fleet coordinator
// (hbpsimd -workers 0) — both serve the same suite/case API — and, as
// a worker process, to the coordinator's worker routes. It is the polite
// counterpart of the server's admission control: a 503 with
// Retry-After is backpressure, not failure, so submissions wait out
// the advertised delay under a capped jittered exponential backoff
// instead of bouncing.
type Client struct {
	// Base is the daemon's base URL, e.g. http://127.0.0.1:8080.
	Base string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
	// MaxSubmitRetries caps how many 503 rejections one submission
	// rides out before giving up (default 8).
	MaxSubmitRetries int
	// BackoffBase and BackoffMax bound the retry delay (defaults
	// 200 ms and 10 s). A server Retry-After below the computed
	// backoff raises the delay to what the server asked for; the cap
	// always wins.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed feeds the jitter; 0 derives one from the wall clock so
	// concurrent clients do not retry in lockstep.
	Seed int64
}

// NewClient returns a client for the daemon at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) retries() int {
	if c.MaxSubmitRetries > 0 {
		return c.MaxSubmitRetries
	}
	return 8
}

func (c *Client) backoffBounds() (base, max time.Duration) {
	base, max = c.BackoffBase, c.BackoffMax
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	if max <= 0 {
		max = 10 * time.Second
	}
	return base, max
}

func (c *Client) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return time.Now().UnixNano()
}

// apiError is a non-2xx response decoded to its error body.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("status %d: %s", e.Status, e.Msg)
}

// do issues one request and decodes the JSON response into out (when
// non-nil; a 204 leaves it untouched). Non-2xx statuses come back as
// *apiError along with any Retry-After the server advertised.
func (c *Client) do(ctx context.Context, method, path string, in, out any) (retryAfter time.Duration, err error) {
	var body *bytes.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck // best-effort body
		return retryAfter, &apiError{Status: resp.StatusCode, Msg: e.Error}
	}
	if out != nil && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return retryAfter, fmt.Errorf("decode %s %s response: %w", method, path, err)
		}
	}
	return retryAfter, nil
}

// retry503 runs op under the retry policy: a 503 waits out
// max(server Retry-After, jittered exponential backoff) capped at
// BackoffMax, up to MaxSubmitRetries times; every other error is
// final.
func (c *Client) retry503(ctx context.Context, op func() (time.Duration, error)) error {
	base, max := c.backoffBounds()
	seed := c.seed()
	for attempt := 1; ; attempt++ {
		retryAfter, err := op()
		if err == nil {
			return nil
		}
		ae, ok := err.(*apiError)
		if !ok || ae.Status != http.StatusServiceUnavailable || attempt > c.retries() {
			return err
		}
		d := Backoff(base, max, seed, attempt)
		if retryAfter > d {
			d = retryAfter
		}
		if d > max {
			d = max
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// CreateSuite posts a suite spec (optionally with inline cases),
// riding out 503 backpressure.
func (c *Client) CreateSuite(ctx context.Context, spec SuiteSpec) (SuiteStatus, error) {
	var out SuiteStatus
	err := c.retry503(ctx, func() (time.Duration, error) {
		return c.do(ctx, http.MethodPost, "/suites", spec, &out)
	})
	return out, err
}

// SubmitCase submits one case to an existing suite, riding out 503
// backpressure.
func (c *Client) SubmitCase(ctx context.Context, suiteID string, spec CaseSpec) (Run, error) {
	var out Run
	err := c.retry503(ctx, func() (time.Duration, error) {
		return c.do(ctx, http.MethodPost, "/suites/"+suiteID+"/cases", spec, &out)
	})
	return out, err
}

// GetRun fetches a run snapshot.
func (c *Client) GetRun(ctx context.Context, id string) (Run, error) {
	var out Run
	_, err := c.do(ctx, http.MethodGet, "/runs/"+id, nil, &out)
	return out, err
}

// GetSuite fetches a suite and its run snapshots.
func (c *Client) GetSuite(ctx context.Context, id string) (SuiteStatus, error) {
	var out SuiteStatus
	_, err := c.do(ctx, http.MethodGet, "/suites/"+id, nil, &out)
	return out, err
}

// CancelRun asks the daemon to cancel a run, riding out 503s (a
// journal that cannot record the cancel).
func (c *Client) CancelRun(ctx context.Context, id string) error {
	return c.retry503(ctx, func() (time.Duration, error) {
		return c.do(ctx, http.MethodDelete, "/runs/"+id, nil, nil)
	})
}

// WaitRun polls until the run reaches a terminal state or ctx ends.
func (c *Client) WaitRun(ctx context.Context, id string, poll time.Duration) (Run, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		run, err := c.GetRun(ctx, id)
		if err != nil {
			return run, err
		}
		if run.State.Terminal() {
			return run, nil
		}
		t := time.NewTimer(poll)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return run, ctx.Err()
		}
	}
}

// Register joins the fleet coordinator at Base as a worker
// (POST /fleet/workers) and returns the worker ID it assigned.
// Register, Lease, Heartbeat and Complete are Coordinator's worker
// methods over the wire, so a worker runs against either; like those,
// they take no context, and none of them retries.
func (c *Client) Register(info WorkerInfo) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	if _, err := c.do(context.TODO(), http.MethodPost, "/fleet/workers", info, &out); err != nil {
		return "", fmt.Errorf("register as %s: %w", info.Name, err)
	}
	return out.ID, nil
}

// Lease asks for the next assignment: nil when the coordinator had
// none within its parked wait (204), ErrUnknownWorker when it no
// longer knows workerID (410).
func (c *Client) Lease(workerID string) (*Assignment, error) {
	var a *Assignment
	if _, err := c.do(context.TODO(), http.MethodPost, "/fleet/workers/"+workerID+"/lease", struct{}{}, &a); err != nil {
		if ae, ok := err.(*apiError); ok && ae.Status == http.StatusGone {
			return nil, fmt.Errorf("lease as %s: %w", workerID, ErrUnknownWorker)
		}
		return nil, err
	}
	return a, nil
}

// Heartbeat renews a lease; a failed call answers DirectiveAbort.
func (c *Client) Heartbeat(workerID, runID string, dispatch int) (Directive, error) {
	var out struct {
		Directive Directive `json:"directive"`
	}
	if _, err := c.do(context.TODO(), http.MethodPost, "/fleet/heartbeat", heartbeatRequest{Worker: workerID, Run: runID, Dispatch: dispatch}, &out); err != nil {
		return DirectiveAbort, err
	}
	return out.Directive, nil
}

// Complete reports an attempt's outcome.
func (c *Client) Complete(workerID, runID string, dispatch int, outcome Outcome) error {
	_, err := c.do(context.TODO(), http.MethodPost, "/fleet/complete", completeRequest{Worker: workerID, Run: runID, Dispatch: dispatch, Outcome: outcome}, nil)
	return err
}
