package fleet

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// finishRuns pushes n runs through c, one at a time, as worker wid:
// submit, lease, report passed. It returns their IDs in order.
func finishRuns(t *testing.T, c *Coordinator, suite, wid string, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		st, err := c.Submit(suite, quickCase("done", int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.Lease(wid)
		if err != nil || a == nil || a.Run != st.ID {
			t.Fatalf("lease of %s = %+v, %v", st.ID, a, err)
		}
		if err := c.Complete(wid, a.Run, a.Dispatch, Outcome{State: scenario.StatePassed, Result: &scenario.CaseResult{Fingerprint: "f"}}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	return ids
}

// TestRetentionBound: the coordinator keeps the newest historyCap
// terminal runs and every unfinished one, live and after a journal
// replay; evicted IDs are known as evicted, a late report for one is a
// duplicate, and the run counter never reissues them.
func TestRetentionBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{Journal: j}, nil)
	suite, err := c.CreateSuite("retention")
	if err != nil {
		t.Fatal(err)
	}
	wid, err := c.Register(WorkerInfo{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	const extra = 40
	done := finishRuns(t, c, suite.ID, wid, historyCap+extra)
	var queued []string
	for i := 0; i < 3; i++ {
		st, err := c.Submit(suite.ID, quickCase("queued", int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, st.ID)
	}

	check := func(c *Coordinator, when string) {
		t.Helper()
		for i, id := range done {
			_, kept := c.GetRun(id)
			if want := i >= extra; kept != want || c.Evicted(id) == want {
				t.Fatalf("%s: run %s (finished %d of %d): kept=%v evicted=%v", when, id, i+1, len(done), kept, c.Evicted(id))
			}
		}
		for _, id := range queued {
			if st, ok := c.GetRun(id); !ok || st.State.Terminal() || c.Evicted(id) {
				t.Fatalf("%s: unfinished run %s not kept: %+v", when, id, st)
			}
		}
		for _, id := range []string{"r-0", "r-99999", "r-01", "s-1", "x"} {
			if c.Evicted(id) {
				t.Fatalf("%s: never-issued ID %q reported evicted", when, id)
			}
		}
		_, runs, _ := c.GetSuite(suite.ID)
		if len(runs) != historyCap+len(queued) {
			t.Fatalf("%s: suite lists %d runs, want %d", when, len(runs), historyCap+len(queued))
		}
		if s := c.Stats(); s.Admitted != int64(len(done)+len(queued)) || s.Completed != int64(len(done)) {
			t.Fatalf("%s: accounting %+v", when, s)
		}
	}
	check(c, "live")

	if err := c.Complete(wid, done[0], 1, Outcome{State: scenario.StatePassed}); err != nil {
		t.Fatalf("late report for an evicted run: %v", err)
	}
	if s := c.Stats(); s.DuplicateCompletions != 1 {
		t.Fatalf("late report for an evicted run not counted as a duplicate: %+v", s)
	}
	if err := c.Complete(wid, "r-99999", 1, Outcome{State: scenario.StatePassed}); !errors.Is(err, ErrUnknownRun) {
		t.Fatalf("report for a never-issued run = %v, want ErrUnknownRun", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	c2 := NewCoordinator(Config{Journal: j2}, entries)
	check(c2, "replayed")
	st, err := c2.Submit(suite.ID, quickCase("next", 1))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("r-%d", len(done)+len(queued)+1); st.ID != want {
		t.Fatalf("replayed coordinator issued %s, want %s", st.ID, want)
	}
}

// TestEvictedRunIsGone: GET and DELETE /runs/{id} answer an evicted
// run 410 Gone naming the journal, and an ID never issued 404.
func TestEvictedRunIsGone(t *testing.T) {
	c := NewCoordinator(Config{}, nil)
	suite, err := c.CreateSuite("gone")
	if err != nil {
		t.Fatal(err)
	}
	wid, err := c.Register(WorkerInfo{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	done := finishRuns(t, c, suite.ID, wid, historyCap+1)
	ts := httptest.NewServer(NewServer(c))
	defer ts.Close()

	for _, tc := range []struct {
		method, id string
		code       int
	}{
		{http.MethodGet, done[0], http.StatusGone},
		{http.MethodDelete, done[0], http.StatusGone},
		{http.MethodGet, done[1], http.StatusOK},
		{http.MethodGet, "r-99999", http.StatusNotFound},
		{http.MethodDelete, "r-99999", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+"/runs/"+tc.id, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("%s /runs/%s = %d %s, want %d", tc.method, tc.id, resp.StatusCode, body, tc.code)
		}
		if tc.code == http.StatusGone && !strings.Contains(string(body), "journal") {
			t.Fatalf("%s /runs/%s: 410 body %s does not point at the journal", tc.method, tc.id, body)
		}
	}
}
