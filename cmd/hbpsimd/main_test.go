package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

// TestFleetCoordinatorMode: with -workers 0 the daemon is a fleet
// coordinator. A worker-mode process leases a case from it over HTTP,
// a client submits and waits through the same route table, and the run
// passes with the solo fingerprint; the coordinator then drains.
func TestFleetCoordinatorMode(t *testing.T) {
	coord, handler, drain := newDaemon(scenario.Config{Workers: 0}, scenario.CoordinatorConfig{LeaseDuration: 2 * time.Second}, nil)
	ts := httptest.NewServer(handler)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan int, 1)
	go func() { exited <- workerMode(ctx, ts.URL, "w1", 1, time.Minute, 0) }()

	spec := scenario.CaseSpec{Name: "fleet", Tree: &scenario.TreeSpec{Leaves: 40, DurationSec: 20, Seed: 3}}
	client := scenario.NewClient(ts.URL)
	suite, err := client.CreateSuite(ctx, scenario.SuiteSpec{Name: "workers-0"})
	if err != nil {
		t.Fatal(err)
	}
	run, err := client.SubmitCase(ctx, suite.Suite.ID, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, done := context.WithTimeout(ctx, 30*time.Second)
	defer done()
	got, err := client.WaitRun(waitCtx, run.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := scenario.RunCaseSolo(&spec, spec.BaseSeed())
	if err != nil {
		t.Fatal(err)
	}
	if got.State != scenario.StatePassed || got.Result == nil || got.Result.Fingerprint != solo.Fingerprint {
		t.Fatalf("run ended %s (%+v), want passed with the solo fingerprint %s", got.State, got.Error, solo.Fingerprint)
	}
	if s := coord.Stats(); s.Admitted != 1 || s.Completed != 1 {
		t.Fatalf("stats %+v, want one admitted and completed run", s)
	}

	cancel()
	if code := <-exited; code != 0 {
		t.Fatalf("worker exited %d", code)
	}
	drainCtx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	if err := drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestWorkerModeAppliesWallDeadline: the -wall-deadline flag is the
// worker's default per-attempt deadline, as it is the daemon's. A case
// that names no deadline of its own and would simulate for seconds
// must fail as wall-deadline under a 50 ms default, not run to
// completion under the worker's built-in 120 s.
func TestWorkerModeAppliesWallDeadline(t *testing.T) {
	c := scenario.NewCoordinator(scenario.CoordinatorConfig{}, nil)
	c.Start()
	defer c.Stop()
	ts := httptest.NewServer(fleet.NewServer(c))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan int, 1)
	go func() { exited <- workerMode(ctx, ts.URL, "w1", 1, 50*time.Millisecond, 0) }()
	defer func() {
		cancel()
		<-exited
	}()

	suite, err := c.CreateSuite("deadline")
	if err != nil {
		t.Fatal(err)
	}
	run, err := c.Submit(suite.ID, scenario.CaseSpec{
		Name: "long",
		Tree: &scenario.TreeSpec{Leaves: 60, DurationSec: 2000, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, _ := c.GetRun(run.ID)
		if got.State.Terminal() {
			if got.State != scenario.StateFailed || got.Error == nil || got.Error.Kind != scenario.ErrWallDeadline {
				t.Fatalf("run ended %s (%+v), want failed/%s", got.State, got.Error, scenario.ErrWallDeadline)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run still %s after 30 s; the worker ignores its wall deadline", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchEndsOnJournalFailure: a journal that fails mid-suite ends
// batch mode with a non-zero exit once the failure is seen, instead of
// a drain that waits forever for runs that can no longer finish.
func TestBatchEndsOnJournalFailure(t *testing.T) {
	dir := t.TempDir()
	j, _, err := scenario.OpenJournal(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	runner := scenario.NewRunner(scenario.Config{Workers: 1, Journal: j}, nil)
	runner.Start()
	spec := scenario.SuiteSpec{Name: "journal-fails"}
	for i := 1; i <= 3; i++ {
		spec.Cases = append(spec.Cases, scenario.CaseSpec{Name: fmt.Sprint("c", i), Tree: &scenario.TreeSpec{Leaves: 40, DurationSec: 40, Seed: int64(i)}})
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "suite.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	const drainTimeout = 3 * time.Second
	exited := make(chan int, 1)
	go func() { exited <- batch(context.Background(), runner, path, "", drainTimeout) }()
	for runner.Stats().Completed == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	closed := time.Now()
	select {
	case code := <-exited:
		if code == 0 {
			t.Fatal("batch exited 0 on a failed journal")
		}
		if s := runner.Stats(); s.Completed == 3 {
			t.Fatalf("all 3 cases completed before the journal failure was seen: %+v", s)
		}
		if wait := time.Since(closed); wait > drainTimeout/2 {
			t.Fatalf("batch took %v after the journal failed", wait)
		}
	case <-time.After(2 * drainTimeout):
		t.Fatalf("batch still draining %v after the journal failed (%d of 3 completed)", 2*drainTimeout, runner.Stats().Completed)
	}
}
