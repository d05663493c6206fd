package fleet

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/scenario"
)

// TestChaosSoak is the fleet's acceptance criterion, meant to run
// under -race: a coordinator and a mixed fleet — healthy workers plus
// workers that crash, hang, report slowly, sit behind partition
// windows and lose control messages — process a full suite, and every
// admitted run either completes exactly once with a fingerprint
// bit-identical to a solo run, or terminates in a recorded typed
// failure. Nothing is lost, nothing is double-counted, and replaying
// the journal reproduces the exact final state.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}

	const runs = 18
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	journal, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		QueueCap:      runs,
		LeaseDuration: 300 * time.Millisecond,
		SweepInterval: 50 * time.Millisecond,
		MaxDispatches: 10,
		BackoffBase:   10 * time.Millisecond,
		BackoffMax:    100 * time.Millisecond,
		Journal:       journal,
	}
	c := NewCoordinator(cfg, nil)
	c.Start()
	defer c.Stop()

	// The menagerie: every failure mode at once. Chaotic workers talk
	// through a FaultyCoord that eats control messages; two healthy
	// workers guarantee the fleet always makes progress even after
	// every chaotic worker has crashed or wedged.
	chaos := func(name string, seed int64, partitions []faults.PartitionWindow) (Coord, *faults.WorkerPlan) {
		plan := &faults.WorkerPlan{
			Seed:       seed,
			CrashProb:  0.15,
			HangProb:   0.10,
			SlowProb:   0.20,
			SlowBy:     700 * time.Millisecond,
			DropProb:   0.05,
			Partitions: partitions,
		}
		return &FaultyCoord{Inner: c, Worker: name, Plan: plan}, plan
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("chaotic-%d", i)
		var parts []faults.PartitionWindow
		if i%2 == 0 {
			// Scheduled partitions: these workers go dark for a window
			// of their own control messages.
			parts = []faults.PartitionWindow{{Worker: name, From: 20, To: 32}}
		}
		coord, plan := chaos(name, int64(100+i), parts)
		startWorker(t, coord, WorkerConfig{Name: name, Faults: plan, PollInterval: 15 * time.Millisecond})
	}
	startWorker(t, c, WorkerConfig{Name: "steady-0", Capacity: 2, PollInterval: 15 * time.Millisecond})
	startWorker(t, c, WorkerConfig{Name: "steady-1", Capacity: 2, PollInterval: 15 * time.Millisecond})

	suite, err := c.CreateSuite("chaos")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, runs)
	seeds := make(map[string]int64, runs)
	for i := 0; i < runs; i++ {
		seed := int64(50 + i)
		st, err := c.Submit(suite.ID, quickCase(fmt.Sprintf("case-%02d", i), seed))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
		seeds[st.ID] = seed
	}

	// Ground truth, computed once per seed.
	solo := make(map[string]string, runs)
	for id, seed := range seeds {
		st, _ := c.GetRun(id)
		solo[id] = soloFingerprint(t, st.Spec, seed)
	}

	// Exactly-once: every admitted run reaches a terminal state.
	final := make(map[string]scenario.RunStatus, runs)
	for _, id := range ids {
		st := waitTerminal(t, c, id)
		final[id] = st
	}

	passed, failed := 0, 0
	for id, st := range final {
		switch st.State {
		case scenario.StatePassed:
			passed++
			if st.SeedAttempt != 1 {
				t.Errorf("run %s: chaos without infra faults advanced seed attempt to %d", id, st.SeedAttempt)
			}
			if st.Result == nil || st.Result.Fingerprint != solo[id] {
				t.Errorf("run %s: fleet fingerprint diverged from solo under chaos", id)
			}
		case scenario.StateFailed:
			failed++
			// The only admissible failure is a typed budget
			// exhaustion — a recorded verdict, not a loss.
			if st.Error == nil || st.Error.Kind != scenario.ErrWorkerLost {
				t.Errorf("run %s: untyped chaos failure %+v", id, st.Error)
			}
		default:
			t.Errorf("run %s: unexpected terminal state %s", id, st.State)
		}
	}
	t.Logf("chaos soak: %d passed, %d worker-lost of %d runs", passed, failed, runs)

	stats := c.Stats()
	t.Logf("stats: %+v", stats)
	if stats.Admitted != runs {
		t.Errorf("admitted %d of %d", stats.Admitted, runs)
	}
	// Double-count guard: finalizations exactly match admissions;
	// every extra report landed in DuplicateCompletions instead.
	if stats.Completed != runs {
		t.Errorf("completed %d runs, admitted %d — lost or double-counted", stats.Completed, runs)
	}
	if passed+failed != runs {
		t.Errorf("terminal states %d != runs %d", passed+failed, runs)
	}

	// The journal must replay to the identical final state: same
	// terminal states, same fingerprints, nothing requeued. Completion
	// records land after the in-memory state flips terminal, so wait
	// for each before severing the journal.
	for _, id := range ids {
		waitJournaled(t, path, scenario.EntryCompleted, id)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	_, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	replay := NewCoordinator(fastCfg(), entries)
	for _, id := range ids {
		got, ok := replay.GetRun(id)
		if !ok {
			t.Errorf("run %s missing from journal replay", id)
			continue
		}
		want := final[id]
		if got.State != want.State {
			t.Errorf("run %s: replayed state %s != live %s", id, got.State, want.State)
		}
		if want.State == scenario.StatePassed && (got.Result == nil || got.Result.Fingerprint != want.Result.Fingerprint) {
			t.Errorf("run %s: replayed fingerprint diverged", id)
		}
	}
	if h := replay.Health(); h.QueueDepth != 0 {
		t.Errorf("journal replay requeued %d runs of a finished suite", h.QueueDepth)
	}
}
