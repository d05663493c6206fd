package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// parkFixture is a started coordinator with one suite and one
// registered worker of the given capacity.
func parkFixture(t *testing.T, capacity int) (c *Coordinator, suite, worker string) {
	t.Helper()
	c = NewCoordinator(fastCfg(), nil)
	c.Start()
	t.Cleanup(c.Stop)
	s, err := c.CreateSuite("park")
	if err != nil {
		t.Fatal(err)
	}
	worker, err = c.Register(WorkerInfo{Name: "w", Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return c, s.ID, worker
}

// TestLeaseParksUntilSubmit: a lease with nothing to hand out waits on
// the coordinator and returns the run a concurrent Submit admits, soon
// after the Submit and well inside leaseWait.
func TestLeaseParksUntilSubmit(t *testing.T) {
	c, suite, wid := parkFixture(t, 1)
	type leased struct {
		a   *Assignment
		err error
		at  time.Time
	}
	got := make(chan leased, 1)
	go func() {
		a, err := c.Lease(wid)
		got <- leased{a, err, time.Now()}
	}()
	time.Sleep(scenario.LeaseWait / 5)
	st, err := c.Submit(suite, quickCase("late", 1))
	if err != nil {
		t.Fatal(err)
	}
	submitted := time.Now()
	r := <-got
	if r.err != nil || r.a == nil || r.a.Run != st.ID {
		t.Fatalf("parked lease = %+v, %v; want run %s, submitted while it waited", r.a, r.err, st.ID)
	}
	if d := r.at.Sub(submitted); d > scenario.LeaseWait/2 {
		t.Fatalf("parked lease returned %v after the submit; want a wake, not a poll", d)
	}
}

// TestParkedLeaseEndsOnDisconnect: over HTTP, a worker that hangs up
// on a parked lease ends the wait; the run submitted afterwards is not
// granted to the dead request but to the next lease, at dispatch 1.
func TestParkedLeaseEndsOnDisconnect(t *testing.T) {
	c, suite, wid := parkFixture(t, 1)
	entered, returned := make(chan struct{}, 1), make(chan struct{}, 1)
	srv := NewServer(c)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		lease := strings.HasSuffix(req.URL.Path, "/lease")
		if lease {
			entered <- struct{}{}
		}
		srv.ServeHTTP(w, req)
		if lease {
			returned <- struct{}{}
		}
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/fleet/workers/"+wid+"/lease", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	hungUp := make(chan struct{})
	go func() {
		defer close(hungUp)
		if resp, err := ts.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	time.Sleep(scenario.LeaseWait / 10)
	cancel()
	<-hungUp
	// Submit before a lease that kept waiting would have timed out, and
	// let a handler still parked wake on it, so one that ignores the
	// hang-up takes the run.
	gone := false
	select {
	case <-returned:
		gone = true
	case <-time.After(scenario.LeaseWait * 3 / 4):
	}
	st, err := c.Submit(suite, quickCase("after-hangup", 2))
	if err != nil {
		t.Fatal(err)
	}
	if !gone {
		<-returned
	}
	a, err := c.Lease(wid)
	if err != nil || a == nil || a.Run != st.ID || a.Dispatch != 1 {
		t.Fatalf("lease after the hang-up = %+v, %v; want run %s at dispatch 1", a, err, st.ID)
	}
}

// TestWorkerStopsWhileParked: a worker cancelled while its lease is
// parked returns within about one leaseWait, in process and over HTTP
// (how a benchmark or test fixture tears a fleet down).
func TestWorkerStopsWhileParked(t *testing.T) {
	for _, remote := range []bool{false, true} {
		c := NewCoordinator(fastCfg(), nil)
		c.Start()
		var coord Coord = c
		var ts *httptest.Server
		if remote {
			ts = httptest.NewServer(NewServer(c))
			coord = NewRemoteCoord(ts.URL)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- NewWorker(WorkerConfig{Name: "idle"}, coord).Run(ctx) }()
		for c.Health().Workers == 0 {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(scenario.LeaseWait / 2)
		cancel()
		stopped := time.Now()
		select {
		case <-done:
			if d := time.Since(stopped); d > scenario.LeaseWait+100*time.Millisecond {
				t.Errorf("remote=%v: worker took %v to stop while parked; want about leaseWait (%v)", remote, d, scenario.LeaseWait)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("remote=%v: worker still running 5s after cancel", remote)
		}
		if ts != nil {
			ts.Close()
		}
		c.Stop()
	}
}

// TestDrainWakesOnLastComplete: starting a drain releases a parked
// lease at once, and Drain returns as soon as the last lease reports,
// not at the next tick of a poll.
func TestDrainWakesOnLastComplete(t *testing.T) {
	var lags []time.Duration
	for round := 0; round < 8; round++ {
		c, suite, wid := parkFixture(t, 2)
		st, err := c.Submit(suite, quickCase("held", int64(round)))
		if err != nil {
			t.Fatal(err)
		}
		a, err := c.Lease(wid)
		if err != nil || a == nil {
			t.Fatalf("lease = %+v, %v", a, err)
		}
		parked := make(chan *Assignment, 1)
		if round == 0 {
			// The worker's second slot finds nothing and parks.
			go func() {
				a, _ := c.Lease(wid)
				parked <- a
			}()
			time.Sleep(scenario.LeaseWait / 5)
		}
		drained := make(chan error, 1)
		drainStart := time.Now()
		go func() { drained <- c.Drain(context.Background()) }()
		if round == 0 {
			if a := <-parked; a != nil {
				t.Fatalf("parked lease was granted %+v during a drain", a)
			}
			if d := time.Since(drainStart); d > scenario.LeaseWait/2 {
				t.Fatalf("parked lease took %v to notice the drain", d)
			}
		}
		time.Sleep(5 * time.Millisecond)
		if err := c.Complete(wid, st.ID, a.Dispatch, Outcome{State: scenario.StatePassed, Result: &scenario.CaseResult{Fingerprint: "f"}}); err != nil {
			t.Fatal(err)
		}
		completed := time.Now()
		select {
		case err := <-drained:
			if err != nil {
				t.Fatal(err)
			}
			lags = append(lags, time.Since(completed))
		case <-time.After(5 * time.Second):
			t.Fatal("drain still waiting 5s after the last lease reported")
		}
	}
	slices.Sort(lags)
	if med := lags[len(lags)/2]; med > 5*time.Millisecond {
		t.Fatalf("Drain returned a median %v after the last Complete (all: %v); want a wake", med, lags)
	}
}

// TestParkedLeaseThroughDaemonServer: the daemons' http.Server
// settings let a parked lease run its full wait and answer 204, and
// carry a woken one's assignment; a write timeout shorter than
// leaseWait would cut the first.
func TestParkedLeaseThroughDaemonServer(t *testing.T) {
	c, suite, _ := parkFixture(t, 1)
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = scenario.NewHTTPServer("", NewServer(c))
	ts.Start()
	defer ts.Close()
	rc := NewRemoteCoord(ts.URL)
	wid, err := rc.Register(WorkerInfo{Name: "daemon"})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if a, err := rc.Lease(wid); a != nil || err != nil {
		t.Fatalf("empty lease = %+v, %v; want 204", a, err)
	}
	if d := time.Since(t0); d < scenario.LeaseWait*9/10 {
		t.Fatalf("empty lease answered after %v; want it parked for leaseWait (%v)", d, scenario.LeaseWait)
	}
	go func() {
		time.Sleep(scenario.LeaseWait / 5)
		c.Submit(suite, quickCase("woken", 3)) //nolint:errcheck // the lease below reports a miss
	}()
	if a, err := rc.Lease(wid); err != nil || a == nil {
		t.Fatalf("parked lease = %+v, %v; want the run submitted while it waited", a, err)
	}
}
