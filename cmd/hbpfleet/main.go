// Command hbpfleet is the fleet coordinator: it runs the same
// coordinator, route table and journal as hbpsimd, but instead of
// executing runs in process it farms them out to registered hbpsimd
// workers under time-bounded leases. Workers that crash, hang or
// partition away lose their lease and the run is re-dispatched — with
// the seed attempt unchanged, so the failed-over result is
// bit-identical to a solo run. Every assignment and completion is
// journaled crash-safe; restarting the coordinator on the same journal
// requeues whatever was queued or in flight.
//
//	hbpfleet -addr 127.0.0.1:9090 -journal fleet.jsonl
//	hbpsimd -worker -coordinator http://127.0.0.1:9090 -name w1
//	hbpsim -server http://127.0.0.1:9090 -defense hbp
//
// SIGINT/SIGTERM drains: admissions and leases stop, in-flight runs
// get their lease window to report, and unfinished runs stay in the
// journal to be requeued by the next coordinator generation.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "listen address")
	journalPath := flag.String("journal", "", "append-only dispatch journal; restart recovery requeues in-flight runs")
	queueCap := flag.Int("queue-cap", 64, "admission queue capacity (full queue -> 503 + Retry-After)")
	lease := flag.Float64("lease", 15, "lease duration in seconds; a worker missing heartbeats this long forfeits its run")
	maxDispatches := flag.Int("max-dispatches", 5, "lease grants per run before it fails as worker-lost")
	maxAttempts := flag.Int("max-attempts", 3, "default seed attempts for reported infrastructure faults (a case's max_attempts overrides it)")
	maxWorkers := flag.Int("max-workers", 64, "worker registry capacity")
	drainTimeout := flag.Float64("drain-timeout", 60, "seconds to let in-flight leases report on shutdown")
	flag.Parse()

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

	coord := scenario.NewCoordinator(scenario.CoordinatorConfig{
		QueueCap:      *queueCap,
		LeaseDuration: time.Duration(*lease * float64(time.Second)),
		MaxDispatches: *maxDispatches,
		MaxAttempts:   *maxAttempts,
		MaxWorkers:    *maxWorkers,
		Journal:       journal,
	}, recovered)
	coord.Start()
	if n := len(recovered); n > 0 {
		h := coord.Health()
		log.Printf("recovered journal: %d entries, %d runs back in the queue", n, h.QueueDepth)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := scenario.NewHTTPServer(*addr, fleet.NewServer(coord))
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("hbpfleet listening on %s (queue %d, lease %.0fs, %d dispatches/run)",
		*addr, *queueCap, *lease, *maxDispatches)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("signal received; draining (up to %.0fs) — unfinished runs stay journaled for the next generation", *drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainTimeout*float64(time.Second)))
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := coord.Drain(shutCtx); err != nil {
		log.Printf("drain expired with leases still out: %v (their runs will be requeued from the journal)", err)
		os.Exit(1)
	}
	log.Print("drained cleanly")
}
