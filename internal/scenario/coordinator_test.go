package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/jsonl"
)

// newCoordinatorServer serves c's client routes over HTTP.
func newCoordinatorServer(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	MountRoutes(mux, c)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestCancelFreesAdmissionSlot: cancelling a queued run takes it off
// the bounded admission queue at once, so health, readyz and the next
// Submit all see the slot free again, and submit+cancel cycles never
// fill the queue.
func TestCancelFreesAdmissionSlot(t *testing.T) {
	const queueCap = 1
	c := NewCoordinator(CoordinatorConfig{QueueCap: queueCap}, nil) // no workers
	srv := newCoordinatorServer(t, c)
	s, err := c.CreateSuite("slots")
	if err != nil {
		t.Fatal(err)
	}
	spec := CaseSpec{Name: "sit", Tree: quickTree(1)}
	run, err := c.Submit(s.ID, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	var h Health
	if resp := getJSON(t, srv.URL+"/readyz", &h); resp.StatusCode != http.StatusOK || h.QueueDepth != 0 {
		t.Fatalf("after cancelling the only queued run: readyz %d, health %+v, want 200 with queue 0", resp.StatusCode, h)
	}
	if run, err = c.Submit(s.ID, spec); err != nil {
		t.Fatalf("submit after cancel: %v", err)
	}
	if err := c.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10*queueCap; i++ {
		run, err := c.Submit(s.ID, spec)
		if err != nil {
			t.Fatalf("cycle %d: submit: %v", i, err)
		}
		if err := c.Cancel(run.ID); err != nil {
			t.Fatalf("cycle %d: cancel: %v", i, err)
		}
	}
	if h := c.Health(); h.QueueDepth != 0 || c.queue.Len() != 0 || len(c.requeue) != 0 {
		t.Fatalf("after %d submit+cancel cycles: health %+v, queue %d, requeue %d, want all empty", 10*queueCap, h, c.queue.Len(), len(c.requeue))
	}
	if st := c.Stats(); st.RejectedFull != 0 || st.Admitted != st.Completed {
		t.Fatalf("stats %+v: want no rejection and every admitted run completed", st)
	}
}

// TestSuitesListInCreationOrder: GET /suites lists suites in the order
// they were created, every time.
func TestSuitesListInCreationOrder(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{}, nil)
	srv := newCoordinatorServer(t, c)
	for i := 0; i < 5; i++ {
		if _, err := c.CreateSuite(fmt.Sprintf("suite %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"s-1", "s-2", "s-3", "s-4", "s-5"}
	for pass := 0; pass < 2; pass++ {
		var suites []Suite
		getJSON(t, srv.URL+"/suites", &suites)
		var got []string
		for _, s := range suites {
			got = append(got, s.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("GET /suites #%d lists %v, want %v", pass+1, got, want)
		}
	}
}

// TestExpireLeasesInSubmissionOrder: simultaneous expiries requeue in
// submission order, whatever order the leases were granted in.
func TestExpireLeasesInSubmissionOrder(t *testing.T) {
	for round := 0; round < 20; round++ {
		c := NewCoordinator(CoordinatorConfig{BackoffBase: time.Nanosecond, BackoffMax: time.Nanosecond}, nil)
		s, _ := c.CreateSuite("expiry")
		w, _ := c.Register(WorkerInfo{Name: "w", Capacity: 3})
		for i := 0; i < 3; i++ {
			if _, err := c.Submit(s.ID, CaseSpec{Name: "x", Tree: quickTree(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			if a, _, err := c.tryLease(w); a == nil || err != nil {
				t.Fatalf("lease %d: %v %v", i, a, err)
			}
		}
		// r-1 reports an infra fault and is leased again, last.
		if err := c.Complete(w, "r-1", 1, Outcome{State: StateFailed, Error: &RunError{Kind: ErrInfra}}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Microsecond)
		if a, _, _ := c.tryLease(w); a == nil || a.Run != "r-1" {
			t.Fatalf("re-lease = %+v, want r-1", a)
		}
		c.ExpireLeases(time.Now().Add(time.Hour))
		if want := []string{"r-1", "r-2", "r-3"}; !slices.Equal(c.requeue, want) {
			t.Fatalf("round %d: expiry requeued %v, want %v", round, c.requeue, want)
		}
	}
}

// TestStaleInfraFaultLeavesHolderAlone: an infra fault reported from
// an expired lease is not a retry of the run. The worker that holds it
// now keeps its lease, the seed attempt stays 1, and the holder's
// pass finalizes the run.
func TestStaleInfraFaultLeavesHolderAlone(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{LeaseDuration: time.Microsecond, BackoffBase: time.Nanosecond, BackoffMax: time.Nanosecond}, nil)
	s, _ := c.CreateSuite("stale")
	a, _ := c.Register(WorkerInfo{Name: "a", Capacity: 1})
	b, _ := c.Register(WorkerInfo{Name: "b", Capacity: 1})
	run, err := c.Submit(s.ID, CaseSpec{Name: "x", Tree: quickTree(1)})
	if err != nil {
		t.Fatal(err)
	}
	if g, _, err := c.tryLease(a); g == nil || err != nil || g.Dispatch != 1 {
		t.Fatalf("lease to a = %+v, %v; want dispatch 1", g, err)
	}
	time.Sleep(time.Microsecond)
	c.ExpireLeases(time.Now())
	time.Sleep(time.Microsecond)
	g, _, err := c.tryLease(b)
	if g == nil || err != nil || g.Dispatch != 2 || g.SeedAttempt != 1 {
		t.Fatalf("lease to b = %+v, %v; want dispatch 2 at seed attempt 1", g, err)
	}
	if err := c.Complete(a, run.ID, 1, Outcome{State: StateFailed, Error: &RunError{Kind: ErrInfra}}); err != nil {
		t.Fatal(err)
	}
	if d, err := c.Heartbeat(b, run.ID, 2); err != nil || d != DirectiveContinue {
		t.Fatalf("b's heartbeat after a stale infra fault = %q, %v; want %q", d, err, DirectiveContinue)
	}
	if st, _ := c.GetRun(run.ID); st.SeedAttempt != 1 || st.State != StateRunning {
		t.Fatalf("after a stale infra fault the run is %s at seed attempt %d, want running at 1", st.State, st.SeedAttempt)
	}
	if err := c.Complete(b, run.ID, 2, Outcome{State: StatePassed, Result: &CaseResult{Kind: "tree", Fingerprint: "f"}}); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.GetRun(run.ID); st.State != StatePassed || st.Result == nil || st.Result.Fingerprint != "f" {
		t.Fatalf("b's pass left the run %+v, want passed with b's fingerprint", st)
	}
	if st := c.Stats(); st.InfraRetries != 0 || st.DuplicateCompletions != 1 {
		t.Fatalf("stats %+v: want no infra retry and one duplicate completion", st)
	}
}

// runView is what a restart must reproduce of one run.
type runView struct {
	State                             State
	Dispatches, SeedAttempt, Attempts int
	ErrKind                           ErrorKind
	Fingerprint                       string
	CancelReq                         bool
	NotBefore                         int64 // unix ns; 0 for none
}

// coordView is what a restart must reproduce of a coordinator.
type coordView struct {
	Suites                                          []Suite
	Runs                                            map[string]runView
	Admitted, Completed, Redispatches, InfraRetries int64
	WorkersLost                                     int64
	NextRun, NextSuite                              int
	Queue, Requeue                                  []string
}

// viewOf snapshots c through its client API plus the queues, which it
// drains. asRestarted describes the coordinator a restart should build
// from c's journal: every run a worker holds back on the re-queue, in
// submission order, with no backoff gate.
func viewOf(c *Coordinator, asRestarted bool) coordView {
	st := c.Stats()
	v := coordView{
		Suites:   c.Suites(),
		Runs:     map[string]runView{},
		Admitted: st.Admitted, Completed: st.Completed,
		Redispatches: st.Redispatches, InfraRetries: st.InfraRetries, WorkersLost: st.WorkersLost,
		NextRun: c.nextRun, NextSuite: c.nextSuite,
		Requeue: slices.Clone(c.requeue),
	}
	for id, ok := c.queue.Pop(); ok; id, ok = c.queue.Pop() {
		v.Queue = append(v.Queue, id)
	}
	for _, s := range v.Suites {
		_, runs, _ := c.GetSuite(s.ID)
		for _, r := range runs {
			rec := c.runs[r.ID]
			rv := runView{
				State: r.State, Dispatches: r.Dispatches, SeedAttempt: r.SeedAttempt, Attempts: r.Attempts,
				CancelReq: rec.cancelReq,
			}
			if r.Error != nil {
				rv.ErrKind = r.Error.Kind
			}
			if r.Result != nil {
				rv.Fingerprint = r.Result.Fingerprint
			}
			if r.State == StateQueued && !rec.notBefore.IsZero() {
				rv.NotBefore = rec.notBefore.UnixNano()
			}
			v.Runs[r.ID] = rv
		}
	}
	if asRestarted {
		for _, rec := range c.runsLocked(func(rec *runRec) bool { return rec.worker != "" }) {
			rv := v.Runs[rec.run.ID]
			rv.State, rv.NotBefore = StateQueued, 0
			v.Runs[rec.run.ID] = rv
			v.Requeue = append(v.Requeue, rec.run.ID)
		}
	}
	return v
}

// replaySchedule drives ops seeded random client and worker calls
// against c, with expiries at chosen lease deadlines. Before op
// closeAt (never, if it is out of range) it closes c's journal; from
// then on every call that would journal must fail with ErrJournal.
func replaySchedule(t *testing.T, c *Coordinator, rng *rand.Rand, ops, closeAt int) {
	var suites, workers []string
	for i := 0; i < 3; i++ {
		w, err := c.Register(WorkerInfo{Name: "w", Capacity: 1 + rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	held := func() []*runRec {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.runsLocked(func(rec *runRec) bool { return rec.worker != "" })
	}
	anyRun := func() string { return fmt.Sprintf("r-%d", 1+rng.Intn(c.nextRun+1)) }
	closed := false
	check := func(err error) {
		if err != nil && !(closed && errors.Is(err, ErrJournal)) {
			t.Fatal(err)
		}
	}
	for op := 0; op < ops; op++ {
		if op == closeAt {
			if err := c.cfg.Journal.Close(); err != nil {
				t.Fatal(err)
			}
			closed = true
		}
		switch p := rng.Intn(100); {
		case p < 4 || len(suites) == 0:
			s, err := c.CreateSuite(fmt.Sprintf("suite-%d", op))
			check(err)
			if err == nil {
				suites = append(suites, s.ID)
			}
		case p < 34:
			spec := CaseSpec{Name: "case", Tree: quickTree(rng.Int63n(1000)), MaxAttempts: rng.Intn(4)}
			if _, err := c.Submit(suites[rng.Intn(len(suites))], spec); err != ErrQueueFull {
				check(err)
			}
		case p < 42:
			c.Cancel(anyRun()) //nolint:errcheck // unknown and evicted runs are part of the schedule
		case p < 67:
			_, _, err := c.tryLease(workers[rng.Intn(len(workers))])
			check(err)
		case p < 93:
			worker, run, dispatch := workers[rng.Intn(len(workers))], anyRun(), 1+rng.Intn(3)
			if h := held(); len(h) > 0 && rng.Intn(4) > 0 {
				rec := h[rng.Intn(len(h))]
				worker, run, dispatch = rec.worker, rec.run.ID, rec.dispatch
			}
			var out Outcome
			switch rng.Intn(4) {
			case 0:
				out = Outcome{State: StatePassed, Result: &CaseResult{Kind: "tree", Fingerprint: fmt.Sprintf("%016x", rng.Uint64())}}
			case 1:
				out = Outcome{State: StateFailed, Error: &RunError{Kind: ErrRun, Message: "boom"}}
			case 2:
				out = Outcome{State: StateFailed, Error: &RunError{Kind: ErrInfra, Message: "crash"}}
			default:
				out = Outcome{State: StateCancelled, Error: &RunError{Kind: ErrCancelled, Message: "aborted"}}
			}
			if err := c.Complete(worker, run, dispatch, out); err != ErrUnknownRun {
				check(err)
			}
		default:
			at := time.Now()
			if h := held(); len(h) > 0 {
				at = h[rng.Intn(len(h))].leaseExpiry
			}
			check(c.ExpireLeases(at))
		}
	}
}

// TestReplayEqualsLive: after any schedule of client calls, worker
// reports (passes, failures, infra faults, stale and duplicate ones)
// and lease expiries, a coordinator rebuilt from the journal holds what
// the live one held — the same runs, suites, counters, queues and
// backoff gates and the same next IDs — except that what a worker held
// is back on the re-queue. Every twentieth schedule runs long enough
// to evict from the bounded history. In every fourth the journal is
// closed partway: the transitions it refuses must change nothing, so
// what reached the file still replays to the live state.
func TestReplayEqualsLive(t *testing.T) {
	dir := t.TempDir()
	cfg := CoordinatorConfig{
		QueueCap:      6,
		LeaseDuration: time.Microsecond,
		MaxDispatches: 4,
		MaxAttempts:   3,
		BackoffBase:   time.Nanosecond,
		BackoffMax:    2 * time.Nanosecond,
	}
	evicted := 0
	for seed := int64(1); seed <= 200; seed++ {
		path := filepath.Join(dir, fmt.Sprintf("journal-%d.jsonl", seed))
		j, _, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Journal = j
		live := NewCoordinator(cfg, nil)
		rng := rand.New(rand.NewSource(seed))
		ops := 40 + rng.Intn(120)
		if seed%20 == 0 {
			ops = 2500
		}
		closeAt := -1
		if seed%4 == 2 {
			closeAt = ops * int(1+seed%7) / 8
		}
		replaySchedule(t, live, rng, ops, closeAt)
		if closeAt < 0 {
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if live.Stats().Completed > HistoryCap {
			evicted++
		}
		_, entries, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Journal = nil
		want := viewOf(live, true)
		got := viewOf(NewCoordinator(cfg, entries), false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d ops): the restarted coordinator differs from the live one\n%s", seed, ops, viewDiff(got, want))
		}
	}
	if evicted == 0 {
		t.Fatal("no schedule completed more than HistoryCap runs: eviction went untested")
	}
}

// TestReplayEqualsLiveConcurrent: the same equality when a client, two
// workers and the lease sweeper call the coordinator at once against a
// real journal. Replay skips a dispatch or a completion that precedes
// its run's submission in the file, so unless each record reaches the
// journal in the order it was applied, a run the client was told had
// passed can come back queued and execute a second time.
func TestReplayEqualsLiveConcurrent(t *testing.T) {
	dir := t.TempDir()
	for trial := int64(1); trial <= 10; trial++ {
		path := filepath.Join(dir, fmt.Sprintf("journal-%d.jsonl", trial))
		j, _, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg := CoordinatorConfig{
			QueueCap:      16,
			LeaseDuration: 2 * time.Millisecond,
			MaxDispatches: 4,
			BackoffBase:   time.Nanosecond,
			BackoffMax:    2 * time.Nanosecond,
			Journal:       j,
		}
		live := NewCoordinator(cfg, nil)
		concurrentSchedule(t, live, trial)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		_, entries, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Journal = nil
		want := viewOf(live, true)
		got := viewOf(NewCoordinator(cfg, entries), false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: the restarted coordinator differs from the live one\n%s", trial, viewDiff(got, want))
		}
	}
}

// concurrentSchedule runs, at once, a client submitting 40 runs and
// cancelling some, two workers of capacity 4 leasing and reporting
// passes, failures and infra faults, and a sweeper expiring leases,
// each on its own seeded stream.
func concurrentSchedule(t *testing.T, c *Coordinator, seed int64) {
	suite, err := c.CreateSuite("concurrent")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	clientDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(clientDone)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 40; i++ {
			spec := CaseSpec{Name: "case", Tree: quickTree(rng.Int63n(1000))}
			if _, err := c.Submit(suite.ID, spec); err != nil && err != ErrQueueFull {
				fail(err)
			}
			if rng.Intn(5) == 0 {
				c.Cancel(fmt.Sprintf("r-%d", 1+rng.Intn(i+1))) //nolint:errcheck // a refused submission leaves no run to cancel
			}
		}
	}()
	workersDone := make(chan struct{})
	var workers sync.WaitGroup
	for w := int64(1); w <= 2; w++ {
		id, err := c.Register(WorkerInfo{Name: "w", Capacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		workers.Add(1)
		go func() {
			defer workers.Done()
			rng := rand.New(rand.NewSource(seed*10 + w))
			var held []*Assignment
			for {
				a, _, err := c.tryLease(id)
				if err != nil {
					fail(err)
					return
				}
				if a != nil {
					held = append(held, a)
				} else if len(held) == 0 && isClosed(clientDone) {
					return
				}
				if len(held) == 0 || rng.Intn(3) == 0 {
					continue
				}
				i := rng.Intn(len(held))
				a = held[i]
				held = slices.Delete(held, i, i+1)
				out := Outcome{State: StatePassed, Result: &CaseResult{Kind: "tree", Fingerprint: fmt.Sprintf("%016x", rng.Uint64())}}
				switch rng.Intn(4) {
				case 0:
					out = Outcome{State: StateFailed, Error: &RunError{Kind: ErrRun, Message: "boom"}}
				case 1:
					out = Outcome{State: StateFailed, Error: &RunError{Kind: ErrInfra, Message: "crash"}}
				}
				if err := c.Complete(id, a.Run, a.Dispatch, out); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	go func() {
		workers.Wait()
		close(workersDone)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if err := c.ExpireLeases(time.Now()); err != nil {
				fail(err)
				return
			}
			select {
			case <-workersDone:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	wg.Wait()
	if len(errs) > 0 {
		t.Fatal(errors.Join(errs...))
	}
}

// isClosed reports whether ch is closed.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// viewDiff renders the fields on which got and want differ.
func viewDiff(got, want coordView) string {
	var out string
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if name := gv.Type().Field(i).Name; name != "Runs" && !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			out += fmt.Sprintf("%s: replay %v, live %v\n", name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	for id, w := range want.Runs {
		if g, ok := got.Runs[id]; !ok || g != w {
			out += fmt.Sprintf("run %s: replay %+v (present %v), live %+v\n", id, g, ok, w)
		}
	}
	for id, g := range got.Runs {
		if _, ok := want.Runs[id]; !ok {
			out += fmt.Sprintf("run %s: only after replay, %+v\n", id, g)
		}
	}
	return out
}

// FuzzJournalReplay feeds arbitrary bytes through the journal parser
// into NewCoordinator. Replay must not panic, and every run it restores
// is either terminal and in the history or queued on exactly one
// queue, where a lease can reach it; a completion naming a
// non-terminal state is ignored, as Complete refuses one live.
func FuzzJournalReplay(f *testing.F) {
	at := `"time":"2026-01-02T03:04:05.123456789Z"`
	for _, body := range []string{
		// TestReplaysRunnerJournal: the started/finished format.
		`{"type":"suite",` + at + `,"suite":"s-1","suite_name":"first"}
{"type":"suite",` + at + `,"suite":"s-2","suite_name":"second"}
{"type":"submitted",` + at + `,"suite":"s-1","run":"r-1","spec":{"name":"done","tree":{"leaves":40,"duration":20,"seed":4},"infra_crash_prob":0.5}}
{"type":"started",` + at + `,"suite":"s-1","run":"r-1","attempt":1}
{"type":"started",` + at + `,"suite":"s-1","run":"r-1","attempt":2}
{"type":"finished",` + at + `,"suite":"s-1","run":"r-1","state":"passed","fingerprint":"6f1d"}
{"type":"submitted",` + at + `,"suite":"s-2","run":"r-2","spec":{"name":"orphan","tree":{"leaves":40,"duration":20,"seed":6}}}
{"type":"started",` + at + `,"suite":"s-2","run":"r-2","attempt":1}
`,
		// TestJournalRequeuesOrphan: dispatched, never completed.
		`{"type":"suite",` + at + `,"suite":"s-1","suite_name":"crashed"}
{"type":"submitted",` + at + `,"suite":"s-1","run":"r-1","spec":{"name":"orphan","tree":{"leaves":40,"duration":20,"seed":5}}}
{"type":"dispatched",` + at + `,"suite":"s-1","run":"r-1","worker":"w-1","dispatch":1,"seed_attempt":1}
`,
		// TestJournalMultiRecordTornTail.
		`{"type":"suite","suite":"s-1","suite_name":"ok"}
{"type":"submitted","suite":"s-1","run":"r-1","spec":{"name":"a"}}
{"type":"started","suite":"s-1","run":
{"type":"finished","suite":"s-1","run":"r-1","state":"passed"}
{"type":"fin`,
		// TestJournalDuplicateCompletion, and a completion in a
		// non-terminal state.
		`{"type":"suite","suite":"s-1","suite_name":"dup-suite"}
{"type":"submitted","suite":"s-1","run":"r-1","spec":{"name":"dup"}}
{"type":"started","suite":"s-1","run":"r-1","attempt":1}
{"type":"completed","suite":"s-1","run":"r-1","state":"running"}
{"type":"finished","suite":"s-1","run":"r-1","state":"passed","fingerprint":"aaaa"}
{"type":"finished","suite":"s-1","run":"r-1","state":"failed","error":{"kind":"error","message":"replayed stale record"}}
`,
		// Requeues, a cancel request and an expiry-driven failure.
		`{"type":"suite",` + at + `,"suite":"s-1","suite_name":"mixed"}
{"type":"submitted",` + at + `,"suite":"s-1","run":"r-1","spec":{"name":"a"}}
{"type":"submitted",` + at + `,"suite":"s-1","run":"r-2","spec":{"name":"b"}}
{"type":"dispatched",` + at + `,"suite":"s-1","run":"r-1","worker":"w-1","dispatch":1,"seed_attempt":1}
{"type":"requeued",` + at + `,"suite":"s-1","run":"r-1","worker":"w-1","dispatch":1,"seed_attempt":2,"reason":"infra-retry"}
{"type":"dispatched",` + at + `,"suite":"s-1","run":"r-2","worker":"w-2","dispatch":1,"seed_attempt":1}
{"type":"cancel-requested",` + at + `,"suite":"s-1","run":"r-2"}
{"type":"requeued",` + at + `,"suite":"s-1","run":"r-2","worker":"w-2","dispatch":1,"seed_attempt":1,"reason":"lease-expired"}
{"type":"completed",` + at + `,"suite":"s-1","run":"r-1","state":"failed","error":{"kind":"worker-lost","message":"x"}}
`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, _ := jsonl.Parse[Entry](data)
		c := NewCoordinator(CoordinatorConfig{QueueCap: 4}, entries)
		history := map[string]bool{}
		for id, ok := c.history.Pop(); ok; id, ok = c.history.Pop() {
			history[id] = true
		}
		onQueue := map[string]int{}
		for _, id := range c.requeue {
			onQueue[id]++
		}
		for id, ok := c.queue.Pop(); ok; id, ok = c.queue.Pop() {
			onQueue[id]++
		}
		for id, rec := range c.runs {
			switch {
			case rec.run.State.Terminal():
				if !history[id] || onQueue[id] != 0 {
					t.Fatalf("terminal run %s: in history %v, on a queue %d times", id, history[id], onQueue[id])
				}
			case rec.run.State != StateQueued || rec.worker != "" || onQueue[id] != 1:
				t.Fatalf("restored run %s is %s, held by %q, on a queue %d times: want queued on exactly one", id, rec.run.State, rec.worker, onQueue[id])
			}
		}
		for id := range onQueue {
			if c.runs[id] == nil {
				t.Fatalf("queued ID %s names no run", id)
			}
		}
		if int64(len(c.runs)) > c.stats.Admitted || c.stats.Completed > c.stats.Admitted {
			t.Fatalf("%d runs in memory, %d admitted, %d completed", len(c.runs), c.stats.Admitted, c.stats.Completed)
		}
	})
}
