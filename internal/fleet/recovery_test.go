package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
)

// waitJournaled polls the journal file until it holds a record of the
// given type for the run. The coordinator publishes in-memory state
// under its lock and writes the matching record after unlocking (a
// real crash loses both together, so clients never observe the gap),
// which means a test that simulates a crash by closing the journal
// must anchor on the durable record, not the in-memory snapshot.
func waitJournaled(t *testing.T, path string, typ EntryType, runID string) {
	t.Helper()
	needle := `"type":"` + string(typ) + `"`
	run := `"run":"` + runID + `"`
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, err := os.ReadFile(path)
		if err == nil {
			for _, line := range strings.Split(string(raw), "\n") {
				if strings.Contains(line, needle) && strings.Contains(line, run) {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s: no %s record journaled", runID, typ)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoordinatorRestartRecovery is the marquee crash test: a
// coordinator dies mid-suite — one run finished, one orphaned on a
// hung worker, one still queued — and its successor replays the
// journal, requeues the unfinished work with budgets intact, and
// finishes the suite with results identical to solo runs.
func TestCoordinatorRestartRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	journal, recovered, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh journal recovered %d entries", len(recovered))
	}

	cfg := fastCfg()
	cfg.Journal = journal
	c1 := NewCoordinator(cfg, nil)
	c1.Start()

	suite, err := c1.CreateSuite("restartable")
	if err != nil {
		t.Fatal(err)
	}
	// Run 1 completes on a healthy worker.
	stop := startWorker(t, c1, WorkerConfig{Name: "gen1"})
	first, err := c1.Submit(suite.ID, quickCase("finished", 21))
	if err != nil {
		t.Fatal(err)
	}
	firstDone := waitTerminal(t, c1, first.ID)
	if firstDone.State != scenario.StatePassed {
		t.Fatalf("first run: %s (%+v)", firstDone.State, firstDone.Error)
	}
	stop()

	// Run 2 is leased by a worker that hangs forever — an in-flight
	// orphan at crash time.
	startWorker(t, c1, WorkerConfig{Name: "wedged", Faults: &faults.WorkerPlan{Seed: 4, HangProb: 1}})
	orphan, err := c1.Submit(suite.ID, quickCase("orphaned", 22))
	if err != nil {
		t.Fatal(err)
	}
	waitJournaled(t, path, EntryDispatched, orphan.ID)

	// Run 3 never leaves the queue.
	queued, err := c1.Submit(suite.ID, quickCase("queued", 23))
	if err != nil {
		t.Fatal(err)
	}

	// The coordinator "crashes": no drain, no cleanup beyond closing
	// the journal file handle.
	c1.Stop()
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 2 replays the journal.
	journal2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	cfg2 := fastCfg()
	cfg2.Journal = journal2
	c2 := NewCoordinator(cfg2, entries)
	c2.Start()
	defer c2.Stop()

	// The finished run survived with its fingerprint; nothing reruns it.
	got, ok := c2.GetRun(first.ID)
	if !ok || got.State != scenario.StatePassed {
		t.Fatalf("finished run after restart: ok=%v %+v", ok, got)
	}
	if got.Result == nil || got.Result.Fingerprint != firstDone.Result.Fingerprint {
		t.Fatalf("recovered fingerprint mismatch: %+v", got.Result)
	}
	// The orphan kept its consumed dispatch budget.
	if got, _ := c2.GetRun(orphan.ID); got.State != scenario.StateQueued || got.Dispatches < 1 {
		t.Fatalf("orphan after restart: %+v", got)
	}
	if got, _ := c2.GetRun(queued.ID); got.State != scenario.StateQueued {
		t.Fatalf("queued run after restart: %+v", got)
	}
	if h := c2.Health(); h.QueueDepth != 2 {
		t.Fatalf("restart queue depth %d, want 2", h.QueueDepth)
	}

	// A healthy second-generation worker finishes the suite; results
	// are solo-identical (failover keeps seed attempt 1).
	startWorker(t, c2, WorkerConfig{Name: "gen2"})
	for id, seed := range map[string]int64{orphan.ID: 22, queued.ID: 23} {
		st := waitTerminal(t, c2, id)
		if st.State != scenario.StatePassed {
			t.Fatalf("run %s after restart: %s (%+v)", id, st.State, st.Error)
		}
		if st.SeedAttempt != 1 {
			t.Fatalf("run %s: restart advanced seed attempt to %d", id, st.SeedAttempt)
		}
		if want := soloFingerprint(t, st.Spec, seed); st.Result.Fingerprint != want {
			t.Fatalf("run %s: fingerprint %s != solo %s", id, st.Result.Fingerprint, want)
		}
	}

	// ID counters resumed past journaled IDs: no collisions.
	st, err := c2.Submit(suite.ID, quickCase("fresh", 24))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == first.ID || st.ID == orphan.ID || st.ID == queued.ID {
		t.Fatalf("restarted coordinator reused run ID %s", st.ID)
	}
}

// TestCancelRequestSurvivesRestart: Cancel acknowledges the client
// only after the request is journaled, so a coordinator crash between
// the ack and the worker's abort cannot resurrect the run — the next
// generation finalizes it as cancelled instead of re-dispatching it.
func TestCancelRequestSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	journal, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Journal = journal
	c1 := NewCoordinator(cfg, nil)
	c1.Start()

	suite, err := c1.CreateSuite("cancel-crash")
	if err != nil {
		t.Fatal(err)
	}
	// The run is leased by a worker that hangs forever, so the cancel
	// request stays pending — the worker never reports.
	startWorker(t, c1, WorkerConfig{Name: "wedged", Faults: &faults.WorkerPlan{Seed: 4, HangProb: 1}})
	st, err := c1.Submit(suite.ID, quickCase("doomed", 25))
	if err != nil {
		t.Fatal(err)
	}
	waitJournaled(t, path, EntryDispatched, st.ID)
	if err := c1.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	// The acknowledgement must already be durable when Cancel returns.
	waitJournaled(t, path, EntryCancelRequested, st.ID)

	// Crash: no drain, no abort delivered to the wedged worker.
	c1.Stop()
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	journal2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	cfg2 := fastCfg()
	cfg2.Journal = journal2
	c2 := NewCoordinator(cfg2, entries)

	// A healthy second-generation worker asks for work: the recovered
	// run must finalize as cancelled, never re-execute.
	wid, err := c2.Register(WorkerInfo{Name: "gen2"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := c2.Lease(wid)
	if err != nil {
		t.Fatal(err)
	}
	if a != nil {
		t.Fatalf("cancelled run re-dispatched after restart: %+v", a)
	}
	got, ok := c2.GetRun(st.ID)
	if !ok || got.State != scenario.StateCancelled {
		t.Fatalf("run after restart: ok=%v %+v", ok, got)
	}
	if got.Error == nil || got.Error.Kind != scenario.ErrCancelled {
		t.Fatalf("run error after restart: %+v", got.Error)
	}
	// The finalization is journaled too, so a third generation agrees.
	waitJournaled(t, path, EntryCompleted, st.ID)
}

// TestFleetJournalTornTail: a crash can tear the last record and leave
// intact-looking bytes beyond it; recovery keeps the valid prefix only
// and the affected run comes back queued, not lost.
func TestFleetJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	journal, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := quickCase("case", 31)
	must := func(e Entry) {
		t.Helper()
		if err := journal.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	must(Entry{Type: EntrySuite, Time: time.Now(), Suite: "s-1", SuiteName: "torn"})
	must(Entry{Type: EntrySubmitted, Time: time.Now(), Suite: "s-1", Run: "r-1", Spec: &spec})
	must(Entry{Type: EntryDispatched, Time: time.Now(), Suite: "s-1", Run: "r-1", Worker: "w-1", Dispatch: 1, SeedAttempt: 1})
	must(Entry{Type: EntryCompleted, Time: time.Now(), Suite: "s-1", Run: "r-1", Worker: "w-1", Dispatch: 1, State: scenario.StatePassed, Fingerprint: "feedface"})
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear a hole in the completed record, leaving the (now
	// unreachable) trailing bytes intact.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i := 0; i < len(raw)-len(`"completed"`); i++ {
		if string(raw[i:i+len(`"completed"`)]) == `"completed"` {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no completed record in journal")
	}
	raw[idx+2] = 0 // corrupt inside the completed record's JSON
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	journal2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	if len(entries) != 3 {
		t.Fatalf("recovered %d entries, want the 3 before the tear", len(entries))
	}
	c := NewCoordinator(fastCfg(), entries)
	got, ok := c.GetRun("r-1")
	if !ok {
		t.Fatal("torn run lost")
	}
	// The completion was torn away, so the run must come back queued
	// with its dispatch budget, ready to re-run — never silently lost.
	if got.State != scenario.StateQueued || got.Dispatches != 1 {
		t.Fatalf("torn-tail run: %+v", got)
	}
}

// TestFleetJournalDuplicateCompletion: a crash between journaling and
// acknowledging can replay a completed record; the first record wins
// and the run does not flip state.
func TestFleetJournalDuplicateCompletion(t *testing.T) {
	spec := quickCase("case", 32)
	now := time.Now()
	entries := []Entry{
		{Type: EntrySuite, Time: now, Suite: "s-1", SuiteName: "dup"},
		{Type: EntrySubmitted, Time: now, Suite: "s-1", Run: "r-1", Spec: &spec},
		{Type: EntryDispatched, Time: now, Suite: "s-1", Run: "r-1", Worker: "w-1", Dispatch: 1, SeedAttempt: 1},
		{Type: EntryCompleted, Time: now, Suite: "s-1", Run: "r-1", Worker: "w-1", Dispatch: 1, State: scenario.StatePassed, Fingerprint: "aaaa"},
		// A replayed, conflicting completion must not win.
		{Type: EntryCompleted, Time: now, Suite: "s-1", Run: "r-1", Worker: "w-2", Dispatch: 2, State: scenario.StateFailed},
	}
	c := NewCoordinator(fastCfg(), entries)
	got, ok := c.GetRun("r-1")
	if !ok {
		t.Fatal("run lost")
	}
	if got.State != scenario.StatePassed || got.Result == nil || got.Result.Fingerprint != "aaaa" {
		t.Fatalf("duplicate completion rewrote the run: %+v", got)
	}
	if s := c.Stats(); s.Completed != 1 {
		t.Fatalf("stats count the run twice: %+v", s)
	}
}

// TestWorkerReregistersAfterCoordinatorRestart: a worker process that
// outlives its coordinator must rejoin the next generation by itself.
// Over the wire, the successor answers the survivor's stale ID with
// 410; the worker registers again — under an ID no journaled lease ever
// carried — and drains the requeued orphan plus fresh work with
// solo-identical fingerprints, without being restarted.
func TestWorkerReregistersAfterCoordinatorRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	journal, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Journal = journal
	cfg.LeaseDuration = time.Minute // the orphan's lease must outlive generation 1
	c1 := NewCoordinator(cfg, nil)
	c1.Start()

	// One listener for both generations: the daemon restarts behind
	// the address the worker was started with.
	var current atomic.Pointer[Server]
	current.Store(NewServer(c1))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer ts.Close()

	suite, err := c1.CreateSuite("generations")
	if err != nil {
		t.Fatal(err)
	}
	// w-1 wedges holding the orphan.
	startWorker(t, c1, WorkerConfig{Name: "wedged", Faults: &faults.WorkerPlan{Seed: 4, HangProb: 1}})
	orphan, err := c1.Submit(suite.ID, quickCase("orphaned", 31))
	if err != nil {
		t.Fatal(err)
	}
	waitJournaled(t, path, EntryDispatched, orphan.ID)

	// w-2, the survivor, joins over HTTP and proves itself on a case
	// only it can take. Its two slots will both trip over the dead ID.
	survivor := NewWorker(WorkerConfig{Name: "survivor", Capacity: 2, PollInterval: 10 * time.Millisecond}, NewRemoteCoord(ts.URL))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		survivor.Run(ctx) //nolint:errcheck // stopped via cancel
	}()
	defer func() { cancel(); <-done }()
	first, err := c1.Submit(suite.ID, quickCase("finished", 32))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, c1, first.ID); st.State != scenario.StatePassed {
		t.Fatalf("first run: %s (%+v)", st.State, st.Error)
	}
	gen1ID := survivor.ID()

	// Generation 1 crashes; generation 2 replays its journal behind
	// the same address.
	c1.Stop()
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	journal2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	cfg2 := fastCfg()
	cfg2.Journal = journal2
	c2 := NewCoordinator(cfg2, entries)
	c2.Start()
	defer c2.Stop()
	current.Store(NewServer(c2))

	client := scenario.NewClient(ts.URL)
	cctx, ccancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer ccancel()
	fresh, err := client.CreateSuite(cctx, scenario.SuiteSpec{
		Name:  "after-restart",
		Cases: []scenario.CaseSpec{quickCase("fresh", 33)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, seed := range map[string]int64{orphan.ID: 31, fresh.Runs[0].ID: 33} {
		run, err := client.WaitRun(cctx, id, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("run %s never finished on the surviving worker: %v", id, err)
		}
		if run.State != scenario.StatePassed {
			t.Fatalf("run %s: %s (%+v)", id, run.State, run.Error)
		}
		if want := soloFingerprint(t, run.Spec, seed); run.Result.Fingerprint != want {
			t.Fatalf("run %s: fingerprint %s != solo %s", id, run.Result.Fingerprint, want)
		}
	}
	if h := c2.Health(); h.Workers != 1 {
		t.Fatalf("generation 2 has %d workers, want the one survivor", h.Workers)
	}
	// Both generation-1 IDs carried a journaled lease; the survivor's
	// new ID must be neither.
	if id := survivor.ID(); id == gen1ID || id == "w-1" || id == "w-2" {
		t.Fatalf("survivor re-registered as %s (was %s): worker IDs must be unique across generations", id, gen1ID)
	}
}
