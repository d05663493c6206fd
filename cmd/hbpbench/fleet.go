package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

// fleetWorkload drives the service layer end to end: one
// fleet.Coordinator (journal on) behind fleet.NewServer on loopback,
// one fleet.Worker of capacity 1 talking to it through
// fleet.NewRemoteCoord, and one scenario.Client on one goroutine.
// Every case is the same analytic figure, so the simulator idles and
// HTTP handlers, admission, journal records, lease/complete and JSON do
// the work.
//
// saturated keeps fleetOutstanding cases in flight (the busy path);
// otherwise the client submits one case and waits for it before the
// next (the idle path, where each case waits out the worker's lease
// poll). Closed loop either way.
type fleetWorkload struct {
	saturated bool
	small     bool
	traced    bool

	spec   scenario.CaseSpec
	soloFP string

	dir       string
	journalFS string
	journal   *fleet.Journal
	coord     *fleet.Coordinator
	srv       *http.Server
	base      string
	stopWork  context.CancelFunc
	workDone  chan error
	client    *scenario.Client
	suite     string
	nextCase  int

	// Tracing fixtures, nil unless traced.
	rec       atomic.Pointer[recorder]
	tcoord    *tracedCoord
	clientCur atomic.Int64
}

const (
	fleetOutstanding = 32
	fleetQueueCap    = 64
	// spanHeader carries the caller's span index to the server-side
	// handler span it causes.
	spanHeader = "X-Hbpbench-Span"
)

// fleetCase is the one case every fleet operation runs: an analytic
// figure, ≈ 0.3 ms solo, so the simulator idles.
func fleetCase() scenario.CaseSpec {
	return scenario.CaseSpec{Kind: "figure", Figure: &scenario.FigureSpec{Fig: "5", Scale: "quick"}}
}

func newFleet(saturated bool) *fleetWorkload {
	return &fleetWorkload{saturated: saturated, spec: fleetCase()}
}

func (w *fleetWorkload) info() workloadInfo {
	// One case at a time, every case waits out the worker's 50 ms idle
	// poll: timer-bound, reported raw.
	info := workloadInfo{opUnit: "case", normalised: w.saturated, minReps: 10, journalFS: w.journalFS}
	if w.saturated {
		// Server, worker and client are all busy, in the warm-up too.
		info.parallel, info.setUpParallel = twoThreadShare, twoThreadShare
		// The coordinator keeps every run it has finished, so the
		// saturated fixture is driven for a fixed 10 segments.
		info.minReps, info.maxReps = 10, 10
	}
	return info
}

// segmentCases is how many cases one repetition (a drained segment)
// submits; warmCases how many a set-up pass pushes through untimed.
func (w *fleetWorkload) segmentCases() int {
	switch {
	case w.small:
		return 4
	case w.saturated:
		return 1500
	default:
		return 25
	}
}

func (w *fleetWorkload) warmCases() int {
	switch {
	case w.small:
		return 2
	case w.saturated:
		return 700
	default:
		return 6
	}
}

// journalDir picks where the coordinator's journal lives: a memory
// filesystem when the host has one, because every journal record is
// fsynced and on a shared VM's disk that measures the neighbours'
// I/O, not this program. The report says which was used.
func journalDir() (dir, fs string, err error) {
	name := "hbpbench-" + strconv.Itoa(os.Getpid())
	if st, serr := os.Stat("/dev/shm"); serr == nil && st.IsDir() {
		if d, merr := os.MkdirTemp("/dev/shm", name+"-"); merr == nil {
			return d, "tmpfs (/dev/shm)", nil
		}
	}
	d, err := diskDir()
	return d, "disk (working directory)", err
}

// diskRoot holds the scratch directories made in the working
// directory.
const diskRoot = ".hbpbench_tmp"

// diskDir makes a scratch directory on the working directory's
// filesystem.
func diskDir() (string, error) {
	if err := os.MkdirAll(diskRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(diskRoot, "run-")
}

// removeScratch deletes a directory made by journalDir or diskDir, and
// diskRoot with it once that is empty (a concurrent run's leftovers
// keep it).
func removeScratch(dir string) error {
	err := os.RemoveAll(dir)
	os.Remove(diskRoot) //nolint:errcheck // fails while not empty, by design
	return err
}

func (w *fleetWorkload) setUp(seed int64) error {
	if w.coord != nil {
		if err := w.tearDown(); err != nil {
			return err
		}
	}
	// The case is analytic, so the seed cannot change its work; it
	// names the cases instead, which changes every journal record and
	// JSON body the service handles.
	w.nextCase = int(uint64(seed) % 1_000_000)

	dir, fs, err := journalDir()
	if err != nil {
		return err
	}
	w.dir, w.journalFS = dir, fs
	journal, _, err := fleet.OpenJournal(filepath.Join(dir, "fleet.jsonl"))
	if err != nil {
		return err
	}
	w.journal = journal
	w.coord = fleet.NewCoordinator(fleet.Config{QueueCap: fleetQueueCap, Journal: journal}, nil)
	w.coord.Start()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	var handler http.Handler = fleet.NewServer(w.coord)
	if w.traced {
		handler = &tracedHandler{next: handler, rec: &w.rec}
	}
	w.srv = &http.Server{Handler: handler}
	go w.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at tearDown

	// One connection each for the worker and the client: no more
	// connections than the machine has processors.
	var workerRT, clientRT http.RoundTripper = oneConn(), oneConn()
	remote := fleet.NewRemoteCoord(w.base)
	var coord fleet.Coord = remote
	if w.traced {
		w.tcoord = &tracedCoord{inner: remote, rec: &w.rec}
		coord = w.tcoord
		workerRT = &spanTransport{base: workerRT, cur: w.tcoord.current}
		w.clientCur.Store(noSpan)
		clientRT = &spanTransport{base: clientRT, cur: func(string) int64 { return w.clientCur.Load() }}
	}
	remote.HTTP = &http.Client{Transport: workerRT}
	worker := fleet.NewWorker(fleet.WorkerConfig{Name: "hbpbench", Capacity: 1}, coord)
	ctx, cancel := context.WithCancel(context.Background())
	w.stopWork, w.workDone = cancel, make(chan error, 1)
	go func() { w.workDone <- worker.Run(ctx) }()

	w.client = scenario.NewClient(w.base)
	w.client.HTTP = &http.Client{Transport: clientRT}

	if err := w.waitReady(); err != nil {
		return err
	}
	solo, err := scenario.RunCaseSolo(&w.spec, 1)
	if err != nil {
		return fmt.Errorf("solo reference: %w", err)
	}
	w.soloFP = solo.Fingerprint
	st, err := w.client.CreateSuite(context.Background(), scenario.SuiteSpec{Name: "hbpbench"})
	if err != nil {
		return fmt.Errorf("create suite: %w", err)
	}
	w.suite = st.Suite.ID

	warm := w.segment(nil, "warm-up", w.warmCases())
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d cases failed: %s", warm.failed, warm.ops, strings.Join(warm.why, "; "))
	}
	return nil
}

func oneConn() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
}

// waitReady probes /readyz until the coordinator is schedulable and
// the worker has registered.
func (w *fleetWorkload) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := w.coord.Health()
		resp, err := w.client.HTTP.Get(w.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && h.Workers == 1 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet fixture not ready after 10s (workers=%d, err=%v)", h.Workers, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (w *fleetWorkload) tearDown() error {
	if w.coord == nil {
		return nil
	}
	w.stopWork()
	<-w.workDone
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	w.coord.Stop()
	if cerr := w.journal.Close(); err == nil {
		err = cerr
	}
	if rerr := removeScratch(w.dir); err == nil {
		err = rerr
	}
	w.coord = nil
	return err
}

func (w *fleetWorkload) rep(rec *recorder, id string) repResult {
	w.rec.Store(rec)
	defer w.rec.Store(nil)
	return w.segment(rec, id, w.segmentCases())
}

type pendingCase struct {
	id        string
	submitted time.Time
}

// segment pushes n cases through the fixture on the calling goroutine
// and returns once the last one is terminal (a drained segment).
func (w *fleetWorkload) segment(rec *recorder, id string, n int) repResult {
	res := repResult{ops: n}
	ctx := context.Background()
	window, gap := 1, 5*time.Millisecond
	if w.saturated {
		window, gap = fleetOutstanding, 250*time.Microsecond
	}
	root := rec.begin("fleet.segment", noSpan, id)
	m := startMeter()
	var inFlight []pendingCase
	submitted, done := 0, 0
	for done < n {
		for submitted < n && len(inFlight) < window {
			w.nextCase++
			spec := w.spec
			spec.Name = "case-" + strconv.Itoa(w.nextCase)
			s := rec.begin("client.submit", root, "")
			w.clientCur.Store(int64(s))
			t0 := time.Now()
			run, err := w.client.SubmitCase(ctx, w.suite, spec)
			rec.end(s, run.ID)
			submitted++
			if err != nil {
				res.fail("%s: submit %s: %v", id, spec.Name, err)
				done++
				continue
			}
			inFlight = append(inFlight, pendingCase{id: run.ID, submitted: t0})
		}
		if len(inFlight) == 0 {
			continue
		}
		head := inFlight[0]
		s := rec.begin("client.poll", root, head.id)
		w.clientCur.Store(int64(s))
		run, err := w.client.GetRun(ctx, head.id)
		rec.end(s, "")
		res.polls++
		if err != nil {
			res.fail("%s: poll %s: %v", id, head.id, err)
			inFlight, done = inFlight[1:], done+1
			continue
		}
		if !run.State.Terminal() {
			// Poll on a schedule fixed at the submit call, every gap
			// after it, not a gap after the last answer: the number of
			// polls a case takes then follows how long the case took and
			// not how late this goroutine woke, and with it the
			// allocations per case (a poll is ≈ 250 of the ≈ 3400).
			since := time.Since(head.submitted)
			time.Sleep(gap - since%gap)
			continue
		}
		inFlight, done = inFlight[1:], done+1
		res.roundTrip = append(res.roundTrip, time.Since(head.submitted))
		w.check(&res, id, run)
	}
	res.use = m.stop()
	rec.end(root, "")
	runtime.GC()
	return res
}

// check holds one terminal run against the fleet's contract: passed on
// its first dispatch with the fingerprint scenario.RunCaseSolo gives
// for the same spec.
func (w *fleetWorkload) check(res *repResult, id string, run scenario.Run) {
	switch {
	case run.State != scenario.StatePassed:
		msg := ""
		if run.Error != nil {
			msg = run.Error.Error()
		}
		res.fail("%s: run %s ended %s %s", id, run.ID, run.State, msg)
		return
	case run.Result == nil || run.Result.Fingerprint != w.soloFP:
		res.fail("%s: run %s fingerprint differs from RunCaseSolo", id, run.ID)
		return
	case run.Attempts != 1:
		res.fail("%s: run %s took %d dispatches", id, run.ID, run.Attempts)
		return
	}
	res.latency = append(res.latency, run.FinishedAt.Sub(run.SubmittedAt))
	res.queueWait = append(res.queueWait, run.StartedAt.Sub(run.SubmittedAt))
	res.exec = append(res.exec, run.FinishedAt.Sub(run.StartedAt))
}

// finish audits the fixture after the timed phases: every failure
// counter of fleet.Stats must still be zero on these healthy
// workloads, and exactly-once must hold.
func (w *fleetWorkload) finish() finishReport {
	var rep finishReport
	rep.layer = map[string]float64{}
	st := w.coord.Stats()
	counters := []struct {
		name string
		v    int64
	}{
		{"fleet.redispatches", st.Redispatches},
		{"fleet.lease_expiries", st.LeaseExpiries},
		{"fleet.duplicate_completions", st.DuplicateCompletions},
		{"fleet.rejected_full", st.RejectedFull},
	}
	for _, c := range counters {
		rep.layer[c.name] = float64(c.v)
		if c.v != 0 {
			rep.fail("%s = %d on a healthy workload", c.name, c.v)
		}
	}
	if st.InfraRetries != 0 || st.WorkersLost != 0 {
		rep.fail("infra_retries=%d workers_lost=%d on a healthy workload", st.InfraRetries, st.WorkersLost)
	}
	if st.Admitted != st.Completed {
		rep.fail("admitted %d but completed %d", st.Admitted, st.Completed)
	}
	if b, err := os.ReadFile(filepath.Join(w.dir, "fleet.jsonl")); err != nil {
		rep.fail("read journal: %v", err)
	} else if st.Admitted > 0 {
		rep.layer["fleet.journal_records_per_case"] = float64(bytes.Count(b, []byte{'\n'})) / float64(st.Admitted)
	}
	if w.tcoord != nil {
		leases, empty, execNs := w.tcoord.leases.Load(), w.tcoord.empty.Load(), w.tcoord.execNs.Load()
		if leases > 0 {
			rep.layer["fleet.empty_lease_frac"] = float64(empty) / float64(leases)
		}
		rep.execTime = time.Duration(execNs)
	}
	return rep
}

// ---- tracing fixtures (benchmark-side only) ----

// tracedCoord decorates the worker's fleet.Coord with one span per
// call, parented on nothing and tied together by the run id, and
// counts what only the worker's side of the wire can see.
type tracedCoord struct {
	inner fleet.Coord
	rec   *atomic.Pointer[recorder]

	// cur holds the open span per route so the HTTP transport can tell
	// the server which span caused the request. A capacity-1 worker has
	// at most one call per route in flight.
	cur [4]atomic.Int64

	leases, empty atomic.Int64
	// execNs sums lease-return → complete-call gaps: the time the
	// worker spent executing rather than talking.
	execNs    atomic.Int64
	leasedAt  atomic.Int64
	leaseBase time.Time
}

const (
	routeRegister = iota
	routeLease
	routeHeartbeat
	routeComplete
)

func (t *tracedCoord) current(path string) int64 {
	switch {
	case strings.HasSuffix(path, "/lease"):
		return t.cur[routeLease].Load()
	case strings.HasSuffix(path, "/heartbeat"):
		return t.cur[routeHeartbeat].Load()
	case strings.HasSuffix(path, "/complete"):
		return t.cur[routeComplete].Load()
	default:
		return t.cur[routeRegister].Load()
	}
}

func (t *tracedCoord) begin(route int, name, run string) (*recorder, int) {
	rec := t.rec.Load()
	s := rec.begin(name, noSpan, run)
	t.cur[route].Store(int64(s))
	return rec, s
}

func (t *tracedCoord) Register(info fleet.WorkerInfo) (string, error) {
	t.leaseBase = time.Now()
	rec, s := t.begin(routeRegister, "worker.register", "")
	id, err := t.inner.Register(info)
	rec.end(s, "")
	return id, err
}

func (t *tracedCoord) Lease(workerID string) (*fleet.Assignment, error) {
	rec, s := t.begin(routeLease, "worker.lease", "")
	a, err := t.inner.Lease(workerID)
	run := ""
	if a != nil {
		run = a.Run
		t.leasedAt.Store(int64(time.Since(t.leaseBase)))
	} else {
		rec.rename(s, "worker.lease.empty")
	}
	rec.end(s, run)
	if rec != nil {
		t.leases.Add(1)
		if a == nil {
			t.empty.Add(1)
		}
	}
	return a, err
}

func (t *tracedCoord) Heartbeat(workerID, runID string, dispatch int) (fleet.Directive, error) {
	rec, s := t.begin(routeHeartbeat, "worker.heartbeat", runID)
	d, err := t.inner.Heartbeat(workerID, runID, dispatch)
	rec.end(s, "")
	return d, err
}

func (t *tracedCoord) Complete(workerID, runID string, dispatch int, out fleet.Outcome) error {
	if t.rec.Load() != nil {
		t.execNs.Add(int64(time.Since(t.leaseBase)) - t.leasedAt.Load())
	}
	rec, s := t.begin(routeComplete, "worker.complete", runID)
	err := t.inner.Complete(workerID, runID, dispatch, out)
	rec.end(s, "")
	return err
}

// spanTransport stamps each request with the span that caused it.
type spanTransport struct {
	base http.RoundTripper
	cur  func(path string) int64
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if s := t.cur(req.URL.Path); s != noSpan {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(s, 10))
	}
	return t.base.RoundTrip(req)
}

// tracedHandler wraps the coordinator's HTTP face with one span per
// request, named by route and parented on the caller's span.
type tracedHandler struct {
	next http.Handler
	rec  *atomic.Pointer[recorder]
}

func (h *tracedHandler) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	rec := h.rec.Load()
	parent := noSpan
	if v := req.Header.Get(spanHeader); v != "" {
		if p, err := strconv.Atoi(v); err == nil {
			parent = p
		}
	}
	s := rec.begin("http "+routeOf(req.Method, req.URL.Path), parent, "")
	h.next.ServeHTTP(rw, req)
	rec.end(s, "")
}

// routeOf folds a request path back into the route pattern it matched
// (ids replaced by {id}), so spans group by route.
func routeOf(method, path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	for i := 1; i < len(parts); i++ {
		if parts[i-1] == "runs" || parts[i-1] == "suites" || parts[i-1] == "workers" {
			parts[i] = "{id}"
		}
	}
	return method + " /" + strings.Join(parts, "/")
}
