package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jsonl"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Runner) {
	t.Helper()
	r := NewRunner(cfg, nil)
	r.Start()
	srv := httptest.NewServer(NewServer(r))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		r.Drain(ctx) //nolint:errcheck
	})
	return srv, r
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestServerSuiteLifecycle drives the happy path over HTTP: create a
// suite with inline cases, poll to completion, read results back.
func TestServerSuiteLifecycle(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 2})
	spec := SuiteSpec{
		Name: "http-suite",
		Cases: []CaseSpec{
			{Name: "a", Tree: quickTree(1)},
			{Name: "b", Tree: quickTree(2)},
		},
	}
	resp, body := postJSON(t, srv.URL+"/suites", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /suites = %d: %s", resp.StatusCode, body)
	}
	var created SuiteStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("decode create response: %v", err)
	}
	if len(created.Runs) != 2 {
		t.Fatalf("created %d runs, want 2", len(created.Runs))
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		var got SuiteStatus
		getJSON(t, srv.URL+"/suites/"+created.Suite.ID, &got)
		done := 0
		for _, run := range got.Runs {
			if run.State.Terminal() {
				if run.State != StatePassed {
					t.Fatalf("run %s: state %s (err %+v)", run.ID, run.State, run.Error)
				}
				if run.Result == nil || run.Result.Fingerprint == "" {
					t.Fatalf("run %s passed without a fingerprint", run.ID)
				}
				done++
			}
		}
		if done == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("suite never finished: %+v", got.Runs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerBackpressure: a full queue answers 503 with Retry-After.
func TestServerBackpressure(t *testing.T) {
	srv, r := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	resp, body := postJSON(t, srv.URL+"/suites", SuiteSpec{Name: "bp"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create suite = %d: %s", resp.StatusCode, body)
	}
	var created SuiteStatus
	json.Unmarshal(body, &created) //nolint:errcheck
	suiteURL := fmt.Sprintf("%s/suites/%s/cases", srv.URL, created.Suite.ID)

	// Block the single worker, then fill the queue.
	resp, body = postJSON(t, suiteURL, CaseSpec{Name: "blocker", Tree: longTree(1)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker = %d: %s", resp.StatusCode, body)
	}
	var blocker Run
	json.Unmarshal(body, &blocker) //nolint:errcheck
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := r.GetRun(blocker.ID)
		if got.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, body = postJSON(t, suiteURL, CaseSpec{Name: "fill", Tree: quickTree(2)}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fill = %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, suiteURL, CaseSpec{Name: "reject", Tree: quickTree(3)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow = %d: %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Cancel the blocker over HTTP; the backlog then drains.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/runs/"+blocker.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", dresp.StatusCode)
	}
	if got := waitTerminal(t, r, blocker.ID, 30*time.Second); got.State != StateCancelled {
		t.Fatalf("blocker state = %s after DELETE", got.State)
	}
}

// TestServerValidation: malformed specs are rejected up front with
// 400, not accepted and failed later. A figure case that sets
// max_events is one: no figure runs under an event budget.
func TestServerValidation(t *testing.T) {
	fig := CaseSpec{Name: "x", Figure: &FigureSpec{Fig: "5", Scale: "quick"}}
	if err := fig.Validate(); err != nil {
		t.Fatalf("figure case refused: %v", err)
	}
	budgeted := fig
	budgeted.MaxEvents = 1000
	srv, _ := newTestServer(t, Config{Workers: 1})
	cases := []SuiteSpec{
		{Name: ""},
		{Name: "bad", Cases: []CaseSpec{{Name: "x", Tree: &TreeSpec{Defense: "nonsense"}}}},
		{Name: "bad2", Cases: []CaseSpec{{Name: "x", Kind: "figure"}}},
		{Name: "bad3", Cases: []CaseSpec{{Name: "x", Figure: &FigureSpec{Fig: "99"}}}},
		{Name: "dup", Cases: []CaseSpec{{Name: "x", Tree: quickTree(1)}, {Name: "x", Tree: quickTree(2)}}},
		{Name: "onoff", Cases: []CaseSpec{{Name: "x", Tree: &TreeSpec{OnOff: "0,0"}}}},
		{Name: "fig-max-events", Cases: []CaseSpec{budgeted}},
	}
	for i, spec := range cases {
		if resp, body := postJSON(t, srv.URL+"/suites", spec); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d (%s), want 400", i, resp.StatusCode, body)
		}
	}
	if resp, body := postJSON(t, srv.URL+"/suites", SuiteSpec{Name: "ok"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("empty suite rejected: %d %s", resp.StatusCode, body)
	}
}

// TestServerHealthz reports queue depth.
func TestServerHealthz(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, QueueCap: 7})
	var h map[string]any
	resp := getJSON(t, srv.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}
	if int(h["queue_cap"].(float64)) != 7 {
		t.Fatalf("queue_cap = %v, want 7", h["queue_cap"])
	}
}

// TestServerReadyz: readyz distinguishes live from schedulable — 200
// with headroom, 503 once the queue is full or the daemon drains,
// while healthz stays 200 throughout.
func TestServerReadyz(t *testing.T) {
	r := NewRunner(Config{Workers: 1, QueueCap: 1}, nil)
	// Pool not started: admitted work stays queued, so fullness is
	// deterministic.
	srv := httptest.NewServer(NewServer(r))
	defer srv.Close()

	var h Health
	if resp := getJSON(t, srv.URL+"/readyz", &h); resp.StatusCode != http.StatusOK || !h.Ready() {
		t.Fatalf("idle readyz = %d %+v, want 200/ready", resp.StatusCode, h)
	}

	resp, body := postJSON(t, srv.URL+"/suites", SuiteSpec{
		Name:  "fill",
		Cases: []CaseSpec{{Name: "sit", Tree: quickTree(1)}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("fill suite = %d: %s", resp.StatusCode, body)
	}
	resp = getJSON(t, srv.URL+"/readyz", &h)
	if resp.StatusCode != http.StatusServiceUnavailable || h.Ready() || h.QueueDepth != 1 {
		t.Fatalf("full readyz = %d %+v, want 503 with queue 1", resp.StatusCode, h)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("unready readyz without Retry-After")
	}
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d while unready, want 200 (still live)", resp.StatusCode)
	}

	// Draining flips readyz to 503 regardless of queue depth.
	r.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp = getJSON(t, srv.URL+"/readyz", &h)
	if resp.StatusCode != http.StatusServiceUnavailable || !h.Draining {
		t.Fatalf("draining readyz = %d %+v, want 503 with draining=true", resp.StatusCode, h)
	}
}

// TestServerNotFound: unknown suite and run IDs are 404.
func TestServerNotFound(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	if resp := getJSON(t, srv.URL+"/suites/s-999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown suite = %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/runs/r-999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown run = %d", resp.StatusCode)
	}
}

// oversizedBody is a valid JSON object whose one string field takes it
// past jsonl.MaxLine, the bound on request bodies.
func oversizedBody(field string) []byte {
	return []byte(`{"` + field + `":"` + strings.Repeat("x", jsonl.MaxLine) + `"}`)
}

// servePost serves one POST through h in process and returns the
// answer.
func servePost(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// TestServerRefusesOversizedBody: a body longer than the journal's
// record bound is refused with 413 on both decoding routes instead of
// being decoded in full.
func TestServerRefusesOversizedBody(t *testing.T) {
	srv := NewServer(NewRunner(Config{Workers: 1}, nil))
	for _, path := range []string{"/suites", "/suites/s-1/cases"} {
		t.Run("POST "+path, func(t *testing.T) {
			rec := servePost(srv, path, oversizedBody("name"))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("POST %s with a %d-byte body = %d: %.200s, want 413", path, jsonl.MaxLine+12, rec.Code, rec.Body)
			}
		})
	}
}

// TestServerRefusesUnjournalableEntry: a body inside the bound whose
// journal entry is not (JSON escapes each '<' as six bytes) is 413
// without Retry-After — retrying could never succeed — and leaves no
// suite or run behind.
func TestServerRefusesUnjournalableEntry(t *testing.T) {
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	r := NewRunner(Config{Workers: 1, Journal: j}, nil)
	r.Start()
	defer r.Drain(context.Background()) //nolint:errcheck // nothing was admitted
	srv := NewServer(r)
	suite, err := r.CreateSuite("small")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := json.Marshal(quickTree(1))
	if err != nil {
		t.Fatal(err)
	}
	name := strings.Repeat("<", 3<<20)
	for _, tc := range []struct{ path, body string }{
		{"/suites", `{"name":"` + name + `"}`},
		{"/suites/" + suite.ID + "/cases", `{"name":"` + name + `","tree":` + string(tree) + `}`},
	} {
		rec := servePost(srv, tc.path, []byte(tc.body))
		if rec.Code != http.StatusRequestEntityTooLarge || rec.Header().Get("Retry-After") != "" {
			t.Fatalf("POST %s = %d (Retry-After %q): %.200s, want 413 without Retry-After",
				tc.path, rec.Code, rec.Header().Get("Retry-After"), rec.Body)
		}
	}
	if suites := r.Suites(); len(suites) != 1 {
		t.Fatalf("refused suite stayed registered: %d suites", len(suites))
	}
	assertNothingAdmitted(t, r, suite.ID)
}

// assertNothingAdmitted: the suite holds no run, the accounting shows
// no admission, and the started runner's executor finds nothing to
// lease.
func assertNothingAdmitted(t *testing.T, r *Runner, suiteID string) {
	t.Helper()
	if _, runs, _ := r.GetSuite(suiteID); len(runs) != 0 {
		t.Fatalf("refused case left runs behind: %+v", runs)
	}
	if s := r.Stats(); s.Admitted != 0 || s.Completed != 0 {
		t.Fatalf("refused case moved the accounting: %+v", s)
	}
	if a, _, err := r.tryLease("w-1"); a != nil || err != nil {
		t.Fatalf("lease after a refused case = %+v, %v; want nothing", a, err)
	}
}

// TestServerJournalFailure: an admission whose journal record cannot
// be written is never admitted — no run, no suite, no count in the
// accounting, nothing to lease — and the client is told to retry (503
// + Retry-After).
func TestServerJournalFailure(t *testing.T) {
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	srv, r := newTestServer(t, Config{Workers: 1, Journal: j})
	resp, body := postJSON(t, srv.URL+"/suites", SuiteSpec{Name: "journaled"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create suite = %d: %s", resp.StatusCode, body)
	}
	var created SuiteStatus
	json.Unmarshal(body, &created) //nolint:errcheck
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	for _, post := range []struct {
		url  string
		body any
	}{
		{fmt.Sprintf("%s/suites/%s/cases", srv.URL, created.Suite.ID), CaseSpec{Name: "ghost", Tree: quickTree(1)}},
		{srv.URL + "/suites", SuiteSpec{Name: "ghost-suite"}},
	} {
		resp, body = postJSON(t, post.url, post.body)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("POST %s on a closed journal = %d (Retry-After %q): %s, want 503 + Retry-After",
				post.url, resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
	}
	if suites := r.Suites(); len(suites) != 1 {
		t.Fatalf("unjournaled suite stayed registered: %+v", suites)
	}
	assertNothingAdmitted(t, r, created.Suite.ID)
}

// TestCancelRunStatuses: DELETE /runs/{id} answers a journal that
// cannot record the cancel with 503 + Retry-After, which
// Client.CancelRun rides out like a submission, while a run ID never
// issued is still 404 and one evicted from the bounded history 410.
func TestCancelRunStatuses(t *testing.T) {
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// Not started: every run stays queued until cancelled.
	r := NewRunner(Config{Workers: 1, Journal: j}, nil)
	var deletes atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodDelete {
			deletes.Add(1)
		}
		NewServer(r).ServeHTTP(w, req)
	}))
	defer srv.Close()
	suite, err := r.CreateSuite("cancels")
	if err != nil {
		t.Fatal(err)
	}
	var first RunStatus
	for i := 0; i <= HistoryCap; i++ {
		run, err := r.Submit(suite.ID, CaseSpec{Name: fmt.Sprint("c", i), Tree: quickTree(1)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = run
		}
		if err := r.Cancel(run.ID); err != nil {
			t.Fatal(err)
		}
	}
	live, err := r.Submit(suite.ID, CaseSpec{Name: "live", Tree: quickTree(2)})
	if err != nil {
		t.Fatal(err)
	}
	del := func(id string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/runs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE %s: %v", id, err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := del(first.ID); resp.StatusCode != http.StatusGone {
		t.Fatalf("DELETE of an evicted run = %d, want 410", resp.StatusCode)
	}
	if resp := del("r-99999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE of a run never issued = %d, want 404", resp.StatusCode)
	}

	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	resp := del(live.ID)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("DELETE on a closed journal = %d (Retry-After %q), want 503 + Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if got, _ := r.GetRun(live.ID); got.State != StateQueued {
		t.Fatalf("unjournaled cancel moved the run to %s", got.State)
	}
	deletes.Store(0)
	client := &Client{Base: srv.URL, MaxSubmitRetries: 2, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond, Seed: 1}
	err = client.CancelRun(context.Background(), live.ID)
	if ae, ok := err.(*apiError); !ok || ae.Status != http.StatusServiceUnavailable || deletes.Load() != 3 {
		t.Fatalf("CancelRun on a closed journal = %v after %d requests, want a 503 after 3", err, deletes.Load())
	}
}
