package fleet

import (
	"fmt"
	"testing"
	"time"
)

// TestWorkerPlanDeterminism: the same (worker, run, attempt) draws the
// same fate on every call and across plan instances — replayable chaos
// is the whole point.
func TestWorkerPlanDeterminism(t *testing.T) {
	mk := func() *workerPlan {
		return &workerPlan{Seed: 99, CrashProb: 0.2, HangProb: 0.2, SlowProb: 0.2}
	}
	a, b := mk(), mk()
	for w := 0; w < 4; w++ {
		for r := 0; r < 16; r++ {
			for attempt := 1; attempt <= 3; attempt++ {
				worker, run := fmt.Sprintf("w-%d", w), fmt.Sprintf("r-%d", r)
				fa, fb := a.Draw(worker, run, attempt), b.Draw(worker, run, attempt)
				if fa != fb {
					t.Fatalf("draw (%s,%s,%d) differs across instances: %+v vs %+v",
						worker, run, attempt, fa, fb)
				}
				if fa != a.Draw(worker, run, attempt) {
					t.Fatalf("draw (%s,%s,%d) not stable across calls", worker, run, attempt)
				}
			}
		}
	}
}

// TestWorkerPlanIndependence: re-dispatches of one run draw fresh
// fates, and distinct workers draw independently — otherwise a crashy
// run would crash on every failover and the attempt budget could never
// save it.
func TestWorkerPlanIndependence(t *testing.T) {
	p := &workerPlan{Seed: 7, CrashProb: 0.5}
	kinds := map[workerFaultKind]int{}
	for attempt := 1; attempt <= 64; attempt++ {
		kinds[p.Draw("w-1", "r-1", attempt).Kind]++
	}
	if kinds[workerCrash] == 0 || kinds[workerHealthy] == 0 {
		t.Fatalf("64 attempts of one run all drew the same fate: %+v", kinds)
	}
	kinds = map[workerFaultKind]int{}
	for w := 0; w < 64; w++ {
		kinds[p.Draw(fmt.Sprintf("w-%d", w), "r-1", 1).Kind]++
	}
	if kinds[workerCrash] == 0 || kinds[workerHealthy] == 0 {
		t.Fatalf("64 workers all drew the same fate for one run: %+v", kinds)
	}
}

// TestWorkerPlanProbabilities: degenerate probabilities behave exactly
// — zero means never, and the cumulative bands select the right kinds.
func TestWorkerPlanProbabilities(t *testing.T) {
	var nilPlan *workerPlan
	if f := nilPlan.Draw("w", "r", 1); f.Kind != workerHealthy {
		t.Fatalf("nil plan drew %v", f.Kind)
	}
	if nilPlan.DropMessage("w", 3) {
		t.Fatal("nil plan dropped a message")
	}
	quiet := &workerPlan{Seed: 1}
	allCrash := &workerPlan{Seed: 1, CrashProb: 1}
	allSlow := &workerPlan{Seed: 1, SlowProb: 1, SlowBy: 50 * time.Millisecond}
	for i := 0; i < 100; i++ {
		run := fmt.Sprintf("r-%d", i)
		if f := quiet.Draw("w", run, 1); f.Kind != workerHealthy {
			t.Fatalf("quiet plan drew %v for %s", f.Kind, run)
		}
		if f := allCrash.Draw("w", run, 1); f.Kind != workerCrash {
			t.Fatalf("crash-certain plan drew %v for %s", f.Kind, run)
		}
		f := allSlow.Draw("w", run, 1)
		if f.Kind != workerSlow || f.SlowBy != 50*time.Millisecond {
			t.Fatalf("slow-certain plan drew %+v for %s", f, run)
		}
	}
	// Default slow delay is applied when the plan leaves it zero.
	if f := (&workerPlan{Seed: 2, SlowProb: 1}).Draw("w", "r", 1); f.SlowBy <= 0 {
		t.Fatalf("slow fault with no delay: %+v", f)
	}
}

// TestPartitionWindows: scheduled windows drop exactly the in-window
// message sequence numbers of exactly the named worker.
func TestPartitionWindows(t *testing.T) {
	p := &workerPlan{
		Seed:       3,
		Partitions: []partitionWindow{{Worker: "w-1", From: 5, To: 8}},
	}
	for seq := uint64(0); seq < 12; seq++ {
		want := seq >= 5 && seq < 8
		if got := p.DropMessage("w-1", seq); got != want {
			t.Fatalf("w-1 seq %d: dropped=%v, want %v", seq, got, want)
		}
		if p.DropMessage("w-2", seq) {
			t.Fatalf("w-2 seq %d dropped by w-1's window", seq)
		}
	}
}

// TestBackgroundDrop: DropProb loses some but not all messages, and
// deterministically so.
func TestBackgroundDrop(t *testing.T) {
	p := &workerPlan{Seed: 11, DropProb: 0.3}
	dropped := 0
	for seq := uint64(0); seq < 200; seq++ {
		a := p.DropMessage("w-1", seq)
		if a != p.DropMessage("w-1", seq) {
			t.Fatalf("drop decision for seq %d not stable", seq)
		}
		if a {
			dropped++
		}
	}
	if dropped == 0 || dropped == 200 {
		t.Fatalf("background drop of 0.3 dropped %d of 200", dropped)
	}
}
