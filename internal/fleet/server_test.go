package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jsonl"
	"repro/internal/scenario"
)

// TestServerEndToEnd drives the full wire path: a scenario.Client
// submits through the fleet server's suite API, a worker pulls over
// the /fleet/ routes via RemoteCoord, and the result round-trips with
// a solo-identical fingerprint — proving hbpsim -fleet and hbpsimd
// -worker interoperate without either knowing about the other.
func TestServerEndToEnd(t *testing.T) {
	c := NewCoordinator(fastCfg(), nil)
	c.Start()
	defer c.Stop()
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()

	startWorker(t, NewRemoteCoord(ts.URL), WorkerConfig{Name: "wire"})

	client := scenario.NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	created, err := client.CreateSuite(ctx, scenario.SuiteSpec{
		Name:  "wire",
		Cases: []scenario.CaseSpec{quickCase("case", 41)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(created.Runs) != 1 {
		t.Fatalf("created %d runs", len(created.Runs))
	}
	run, err := client.WaitRun(ctx, created.Runs[0].ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if run.State != scenario.StatePassed {
		t.Fatalf("wire run: %s (%+v)", run.State, run.Error)
	}
	if want := soloFingerprint(t, run.Spec, 41); run.Result.Fingerprint != want {
		t.Fatalf("wire fingerprint %s != solo %s", run.Result.Fingerprint, want)
	}

	// The suite view decodes for the scenario client too.
	suite, err := client.GetSuite(ctx, created.Suite.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Runs) != 1 || suite.Runs[0].State != scenario.StatePassed {
		t.Fatalf("suite view: %+v", suite)
	}
}

// TestServerBackpressureAndHealth: a full queue answers 503 with
// Retry-After on both the submit route and readyz, while healthz stays
// 200 — live but not schedulable.
func TestServerBackpressureAndHealth(t *testing.T) {
	cfg := fastCfg()
	cfg.QueueCap = 1
	c := NewCoordinator(cfg, nil)
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()

	client := scenario.NewClient(ts.URL)
	client.MaxSubmitRetries = 1
	client.BackoffBase = time.Millisecond
	client.BackoffMax = 2 * time.Millisecond
	client.Seed = 1
	ctx := context.Background()

	created, err := client.CreateSuite(ctx, scenario.SuiteSpec{Name: "pressure"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.SubmitCase(ctx, created.Suite.ID, quickCase("fits", 1)); err != nil {
		t.Fatal(err)
	}
	// No workers: the queue stays full, and the retrying client
	// eventually surfaces the 503.
	if _, err := client.SubmitCase(ctx, created.Suite.ID, quickCase("bounced", 2)); err == nil {
		t.Fatal("second submit fit a size-1 queue with no workers")
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz on full queue: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("readyz 503 without Retry-After")
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.QueueDepth != 1 || h.QueueCap != 1 {
		t.Fatalf("readyz body: %+v", h)
	}

	live, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	live.Body.Close()
	if live.StatusCode != http.StatusOK {
		t.Fatalf("healthz while full: %d", live.StatusCode)
	}

	stats, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var s Stats
	if err := json.NewDecoder(stats.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.RejectedFull == 0 {
		t.Fatalf("stats missed the rejection: %+v", s)
	}
}

// TestServerWorkerRoutes: the worker-facing wire protocol — register,
// empty lease, heartbeat against a stale lease — behaves as RemoteCoord
// expects.
func TestServerWorkerRoutes(t *testing.T) {
	c := NewCoordinator(fastCfg(), nil)
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()
	rc := NewRemoteCoord(ts.URL)

	id, err := rc.Register(WorkerInfo{Name: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty worker ID")
	}
	// Empty queue: lease returns no assignment, no error.
	a, err := rc.Lease(id)
	if err != nil || a != nil {
		t.Fatalf("lease on empty queue: %+v, %v", a, err)
	}
	// Heartbeat for an unknown run: abort, not an error.
	d, err := rc.Heartbeat(id, "r-404", 1)
	if err != nil || d != DirectiveAbort {
		t.Fatalf("stale heartbeat: %v, %v", d, err)
	}
	// Completing an unknown run is a hard error (410 on the wire).
	if err := rc.Complete(id, "r-404", 1, Outcome{State: scenario.StatePassed}); err == nil {
		t.Fatal("completing an unknown run succeeded")
	}
	// Unknown worker leasing: 410 surfaces as an error.
	if _, err := rc.Lease("w-404"); err == nil {
		t.Fatal("unknown worker leased")
	}
}

// TestServerRefusesOversizedBody: every route that decodes a body —
// the shared suite/case routes and the three worker routes — answers
// 413 to one longer than the journal's record bound instead of
// decoding it in full.
func TestServerRefusesOversizedBody(t *testing.T) {
	srv := NewServer(NewCoordinator(fastCfg(), nil))
	for _, tc := range []struct{ path, field string }{
		{"/suites", "name"},
		{"/suites/s-1/cases", "name"},
		{"/fleet/workers", "name"},
		{"/fleet/heartbeat", "worker"},
		{"/fleet/complete", "worker"},
	} {
		t.Run("POST "+tc.path, func(t *testing.T) {
			body := `{"` + tc.field + `":"` + strings.Repeat("x", jsonl.MaxLine) + `"}`
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(body)))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("POST %s with a %d-byte body = %d: %.200s, want 413", tc.path, len(body), rec.Code, rec.Body)
			}
		})
	}
}

// TestServerJournalFailure: an admission whose journal record cannot
// be written is withdrawn, not left as a ghost — the run is finalized
// cancelled so no worker can lease it, the suite is not registered,
// the accounting stays balanced, and the client is told to retry (503
// + Retry-After).
func TestServerJournalFailure(t *testing.T) {
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "fleet.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Journal = j
	c := NewCoordinator(cfg, nil)
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()
	suite, err := c.CreateSuite("journaled")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	for _, post := range []struct {
		url  string
		body any
	}{
		{ts.URL + "/suites/" + suite.ID + "/cases", quickCase("ghost", 1)},
		{ts.URL + "/suites", scenario.SuiteSpec{Name: "ghost-suite"}},
	} {
		b, err := json.Marshal(post.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(post.url, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("POST %s on a closed journal = %d (Retry-After %q), want 503 + Retry-After",
				post.url, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	_, runs, _ := c.GetSuite(suite.ID)
	if len(runs) != 1 || runs[0].State != scenario.StateCancelled || runs[0].Dispatches != 0 ||
		runs[0].Error == nil || runs[0].Error.Kind != scenario.ErrCancelled {
		t.Fatalf("unjournaled run was not withdrawn: %+v", runs)
	}
	if suites := c.Suites(); len(suites) != 1 {
		t.Fatalf("unjournaled suite stayed registered: %+v", suites)
	}
	if s := c.Stats(); s.Admitted != 1 || s.Completed != 1 {
		t.Fatalf("withdrawn admission unbalanced the accounting: %+v", s)
	}
	id, err := c.Register(WorkerInfo{Name: "w", Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a, err := c.Lease(id); a != nil || err != nil {
		t.Fatalf("withdrawn run was leased: %+v, %v", a, err)
	}
}
