// Command hbpsimd is the scenario service daemon: a long-lived HTTP
// server executing declarative simulation suites under supervision —
// per-run deadlines, panic isolation, bounded retry of infrastructure
// faults, admission control on the submission queue, a bounded run
// history, crash-safe journaling and graceful drain on SIGINT/SIGTERM.
// It runs the same coordinator as hbpfleet, with -workers in-process
// executors in place of remote workers, so a restart on the same
// -journal requeues the runs the previous process died holding, and
// they run again with no client action.
//
// Daemon mode:
//
//	hbpsimd -addr 127.0.0.1:8080 -journal runs.jsonl
//	curl -X POST localhost:8080/suites -d @suite.json
//	curl localhost:8080/suites/s-1
//
// Batch mode runs one suite to completion and exits (no HTTP):
//
//	hbpsimd -suite examples/scenario-service/experiments-suite.json -out results/
//
// Worker mode joins a hbpfleet coordinator instead of serving its own
// API: the daemon pulls leased assignments, executes them with the
// same deterministic executor, heartbeats while running, and reports
// outcomes; SIGINT/SIGTERM stops pulling and exits:
//
//	hbpsimd -worker -coordinator http://127.0.0.1:9090 -name w1 -workers 2
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (daemon mode)")
	journalPath := flag.String("journal", "", "append-only run journal; restart recovery requeues unfinished runs")
	workers := flag.Int("workers", 2, "execution pool size")
	queueCap := flag.Int("queue-cap", 64, "submission queue capacity (full queue -> 503 + Retry-After)")
	wallDeadline := flag.Float64("wall-deadline", 120, "default per-attempt wall-clock deadline in seconds")
	maxEvents := flag.Uint64("max-events", 0, "default simulated-event deadline (0 = none)")
	maxAttempts := flag.Int("max-attempts", 3, "default seed attempts for reported infrastructure faults (a case's max_attempts overrides it)")
	drainTimeout := flag.Float64("drain-timeout", 60, "seconds to let in-flight runs finish on shutdown before cancelling them")
	suitePath := flag.String("suite", "", "batch mode: run this suite spec (JSON) to completion and exit")
	outDir := flag.String("out", "", "batch mode: write one JSON artifact per case into this directory")
	worker := flag.Bool("worker", false, "worker mode: pull leased runs from a hbpfleet coordinator instead of serving HTTP")
	coordinator := flag.String("coordinator", "", "worker mode: coordinator base URL, e.g. http://127.0.0.1:9090")
	name := flag.String("name", "", "worker mode: worker name (default the hostname)")
	flag.Parse()
	wall := time.Duration(*wallDeadline * float64(time.Second))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *worker {
		os.Exit(workerMode(ctx, *coordinator, *name, *workers, wall, *maxEvents))
	}

	var journal *scenario.Journal
	var recovered []scenario.Entry
	if *journalPath != "" {
		var err error
		journal, recovered, err = scenario.OpenJournal(*journalPath)
		if err != nil {
			log.Fatal(err)
		}
		defer journal.Close()
	}

	runner := scenario.NewRunner(scenario.Config{
		Workers:      *workers,
		QueueCap:     *queueCap,
		WallDeadline: wall,
		MaxEvents:    *maxEvents,
		MaxAttempts:  *maxAttempts,
		Journal:      journal,
	}, recovered)
	runner.Start()

	if *suitePath != "" {
		os.Exit(batch(ctx, runner, *suitePath, *outDir, time.Duration(*drainTimeout*float64(time.Second))))
	}

	if len(recovered) > 0 {
		log.Printf("recovered journal: %d entries, %d runs back in the queue", len(recovered), runner.Health().QueueDepth)
	}

	srv := scenario.NewHTTPServer(*addr, scenario.NewServer(runner))
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("hbpsimd listening on %s (%d workers, queue %d)", *addr, *workers, *queueCap)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("signal received; draining (up to %.0fs)", *drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainTimeout*float64(time.Second)))
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := runner.Drain(shutCtx); err != nil {
		log.Printf("drain expired; live runs were cancelled: %v", err)
		os.Exit(1)
	}
	log.Print("drained cleanly")
}

// workerMode registers with a hbpfleet coordinator and executes
// leased assignments until ctx is done. The fleet layer owns all
// failure handling — a worker that dies mid-run simply stops
// heartbeating and the coordinator re-dispatches. wallDeadline and
// maxEvents are the per-attempt defaults a case spec may override.
func workerMode(ctx context.Context, coordinator, name string, capacity int, wallDeadline time.Duration, maxEvents uint64) int {
	if coordinator == "" {
		log.Print("worker mode needs -coordinator")
		return 2
	}
	if name == "" {
		name, _ = os.Hostname()
		if name == "" {
			name = "hbpsimd-worker"
		}
	}
	w := fleet.NewWorker(fleet.WorkerConfig{
		Name:         name,
		Capacity:     capacity,
		WallDeadline: wallDeadline,
		MaxEvents:    maxEvents,
	}, fleet.NewRemoteCoord(coordinator))
	log.Printf("worker %q joining fleet at %s (%d slots)", name, coordinator, capacity)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Print(err)
		return 1
	}
	log.Print("worker stopped")
	return 0
}

// batch runs one suite spec to completion: submit every case, drain,
// print a summary table, write per-case artifacts, and exit non-zero
// if anything failed. An interrupt cancels live runs and reports the
// partial results.
func batch(ctx context.Context, runner *scenario.Runner, path, outDir string, drainTimeout time.Duration) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Print(err)
		return 1
	}
	var spec scenario.SuiteSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		log.Printf("parse %s: %v", path, err)
		return 1
	}
	if err := spec.Validate(); err != nil {
		log.Print(err)
		return 1
	}
	if len(spec.Cases) > scenario.HistoryCap {
		// The summary reads every run back, and only the newest
		// HistoryCap terminal runs stay in memory.
		log.Printf("suite %s has %d cases; batch mode runs at most %d, so split it", spec.Name, len(spec.Cases), scenario.HistoryCap)
		return 1
	}
	suite, err := runner.CreateSuite(spec.Name)
	if err != nil {
		log.Print(err)
		return 1
	}
	ids := make([]string, 0, len(spec.Cases))
	for i := range spec.Cases {
		// The queue is sized for interactive backpressure; batch mode
		// just waits for a slot instead of bouncing.
		for {
			run, err := runner.Submit(suite.ID, spec.Cases[i])
			if err == nil {
				ids = append(ids, run.ID)
				break
			}
			if !errors.Is(err, scenario.ErrQueueFull) {
				log.Printf("submit %s: %v", spec.Cases[i].Name, err)
				return 1
			}
			select {
			case <-time.After(100 * time.Millisecond):
			case <-ctx.Done():
				log.Print("interrupted before full submission; cancelling admitted runs — results are partial")
				forceCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
				runner.Drain(forceCtx) //nolint:errcheck // exiting on the interrupt path regardless
				cancel()
				return 130
			}
		}
	}

	drained := make(chan error, 1)
	go func() { drained <- runner.Drain(context.Background()) }()
	interrupted := false
	select {
	case err := <-drained:
		if err != nil {
			log.Printf("drain: %v", err)
			return 1
		}
	case <-ctx.Done():
		interrupted = true
		log.Print("interrupt received; cancelling live runs — results below are partial")
		forceCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		runner.Drain(forceCtx) //nolint:errcheck // first Drain call owns the error
		cancel()
		<-drained
	}

	failed := 0
	fmt.Printf("suite %s (%s): %d cases\n", spec.Name, suite.ID, len(ids))
	for _, id := range ids {
		run, ok := runner.GetRun(id)
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-24s %-10s attempts=%d", run.Spec.Name, run.State, run.Attempts)
		switch {
		case run.State == scenario.StatePassed:
			line += "  fingerprint=" + run.Result.Fingerprint[:12]
			if run.Result.Tree != nil {
				line += fmt.Sprintf("  during-attack=%.1f%%", 100*run.Result.Tree.MeanDuringAttack)
			}
		case run.Error != nil:
			line += fmt.Sprintf("  %s: %s", run.Error.Kind, run.Error.Message)
			failed++
		default:
			failed++
		}
		fmt.Println(line)
		if outDir != "" {
			if err := writeArtifact(outDir, run.Run); err != nil {
				log.Print(err)
				return 1
			}
		}
	}
	if interrupted {
		return 130
	}
	if failed > 0 {
		log.Printf("%d of %d cases did not pass", failed, len(ids))
		return 1
	}
	return 0
}

// writeArtifact persists one run as <out>/<case>.json, plus the
// rendered table alongside it for figure cases.
func writeArtifact(dir string, run scenario.Run) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(run, "", "  ")
	if err != nil {
		return err
	}
	name := filepath.Join(dir, run.Spec.Name+".json")
	if err := os.WriteFile(name, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if run.Result != nil && run.Result.Figure != nil {
		txt := filepath.Join(dir, run.Spec.Name+".txt")
		if err := os.WriteFile(txt, []byte(run.Result.Figure.Rendered), 0o644); err != nil {
			return err
		}
	}
	return nil
}
