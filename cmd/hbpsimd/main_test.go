package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

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
