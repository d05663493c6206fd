// Command hbpsim runs a single DDoS-defense simulation scenario and
// prints the legitimate-throughput time series plus a run summary. It
// is a thin client of the scenario service: the flags build a
// scenario.TreeSpec (the same document the hbpsimd API accepts), and
// -server submits it to a running hbpsimd daemon or fleet coordinator
// (hbpsimd -workers 0; they serve the same API) instead of executing
// locally.
// The internet-scale sweep is a figure: figures -fig internet.
//
// Usage:
//
//	hbpsim -defense hbp -leaves 200 -attackers 25 -rate 0.1 -placement even
//	hbpsim -defense pushback -placement close
//	hbpsim -defense none
//	hbpsim -defense hbp -onoff 0.5,6.5 -progressive
//	hbpsim -server http://127.0.0.1:8080   # run on a hbpsimd daemon
//	hbpsim -server http://127.0.0.1:9090   # or on a fleet coordinator (hbpsimd -workers 0)
//
// SIGINT cancels the run at the next event-batch checkpoint; the
// process exits non-zero after noting the partial results.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	defense := flag.String("defense", "hbp", "defense scheme: hbp, pushback, pushback-levelk, stackpi, none")
	leaves := flag.Int("leaves", 200, "number of end hosts in the tree")
	attackers := flag.Int("attackers", 25, "number of attack hosts")
	rate := flag.Float64("rate", 0.1, "per-attacker rate in Mb/s")
	placement := flag.String("placement", "even", "attacker placement: even, close, far")
	progressive := flag.Bool("progressive", false, "enable progressive back-propagation")
	onoff := flag.String("onoff", "", "on-off attack 'ton,toff' in seconds (empty = continuous)")
	red := flag.Bool("red", false, "use RED gateways instead of drop-tail")
	showTrace := flag.Bool("trace", false, "print the defense's structured event log (hbp only)")
	deployFrac := flag.Float64("deploy", 1.0, "fraction of ISPs deploying HBP (1 = everywhere)")
	duration := flag.Float64("duration", 100, "run length in seconds")
	epoch := flag.Float64("epoch", 10, "roaming epoch length m in seconds")
	seed := flag.Int64("seed", 1, "scenario seed")
	reliable := flag.Bool("reliable", false, "use the ack+lease control plane (hbp only)")
	loss := flag.Float64("loss", 0, "control-packet loss probability on every link [0,1)")
	crashRate := flag.Float64("crash-rate", 0, "router crash/restart cycles per 100 s of run")
	auth := flag.Bool("auth", false, "authenticate the control plane with per-epoch MACs + anti-replay (hbp only)")
	watchdog := flag.Bool("watchdog", false, "enable the stall watchdog that re-seeds evicted session trees (hbp only)")
	byzantine := flag.Int("byzantine", 0, "number of subverted routers forging/replaying/amplifying control frames (hbp only)")
	byzRate := flag.Float64("byz-rate", 2, "hostile frames per second per subverted router")
	server := flag.String("server", "", "submit to a running hbpsimd daemon or fleet coordinator (hbpsimd -workers 0) at this base URL instead of executing locally")
	flag.Parse()

	spec := scenario.TreeSpec{
		Defense:     *defense,
		Leaves:      *leaves,
		Attackers:   *attackers,
		RateMbps:    *rate,
		Placement:   *placement,
		Progressive: *progressive,
		OnOff:       *onoff,
		RED:         *red,
		DeployFrac:  *deployFrac,
		DurationSec: *duration,
		EpochSec:    *epoch,
		Seed:        *seed,
		Reliable:    *reliable,
		LossProb:    *loss,
		CrashRate:   *crashRate,
		Auth:        *auth,
		Watchdog:    *watchdog,
		Byzantine:   *byzantine,
		ByzRate:     *byzRate,
	}
	cfg, err := spec.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *server != "" {
		os.Exit(remote(ctx, *server, spec))
	}

	// The JSON spec reads 0 attackers as "default"; the flag means a
	// literal zero (an undefended-baseline sanity run). RunTree
	// revalidates.
	cfg.NumAttackers = *attackers
	cfg.TraceCap = 0
	if *showTrace {
		cfg.TraceCap = 2000
	}
	cfg.Context = ctx

	res, err := experiments.RunTree(cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "interrupted — no results (the run was cancelled before completing);", err)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("scenario: %v, %d clients, %d attackers (%s) at %.2f Mb/s each\n",
		cfg.Defense, cfg.Topology.Leaves-cfg.NumAttackers, cfg.NumAttackers,
		cfg.Placement, cfg.AttackRate/1e6)
	fmt.Printf("attack window: %.0f..%.0f s of %.0f s\n\n", cfg.AttackStart, cfg.AttackEnd, cfg.Duration)
	fmt.Println("time(s)  client throughput (% of bottleneck)")
	s := res.Throughput
	for i := range s.Times {
		bar := strings.Repeat("#", int(s.Values[i]*60))
		fmt.Printf("%6.0f  %5.1f  %s\n", s.Times[i], 100*s.Values[i], bar)
	}
	fmt.Printf("\nmean before attack: %.1f%%\n", 100*res.MeanBefore)
	fmt.Printf("mean during attack: %.1f%%\n", 100*res.MeanDuringAttack)
	fmt.Printf("captures: %d/%d attackers", res.AttackersCaptured, cfg.NumAttackers)
	if res.CollateralBlocks > 0 {
		fmt.Printf(", %d legitimate clients blocked", res.CollateralBlocks)
	}
	if len(res.CaptureTimes) > 0 {
		var max float64
		for _, ct := range res.CaptureTimes {
			if ct > max {
				max = ct
			}
		}
		fmt.Printf(" (last at +%.1f s after attack start)", max)
	}
	fmt.Printf("\ncontrol messages: %d, queue drops: %d\n", res.CtrlMessages, res.QueueDrops)
	if cfg.Defense == experiments.HBP {
		plane := "fire-and-forget"
		if *reliable {
			plane = "ack+lease"
		}
		fmt.Printf("control plane (%s): retrans %d, give-ups %d, acks rx %d, lease expiries %d, sessions lost to crash %d, open at end %d\n",
			plane, res.Ctrl.Retransmissions, res.Ctrl.GiveUps, res.Ctrl.AcksReceived,
			res.Ctrl.LeaseExpiries, res.Ctrl.SessionsLostToCrash, res.OpenSessionsAtEnd)
	}
	if cfg.Faults != nil || cfg.FaultCrashes > 0 {
		fmt.Printf("faults: %d packets lost to noise, %d to outages\n", res.FaultLossCount, res.FaultOutageCount)
	}
	if *auth || *watchdog || *byzantine > 0 {
		fmt.Printf("security: %d byzantine frames injected, %d auth rejects, %d replay rejects, %d admission rejects, %d evictions, %d mark-spoof rejects, %d watchdog reseeds\n",
			res.ByzantineInjected, res.Sec.AuthRejects, res.Sec.ReplayRejects,
			res.Sec.AdmissionRejects, res.Sec.SessionEvictions, res.Sec.MarkSpoofRejects, res.Sec.WatchdogReseeds)
		fmt.Printf("state: peak %d of budget %d\n", res.PeakState, res.StateBudget)
	}
	if *showTrace && res.Trace != nil {
		fmt.Printf("\ndefense event log (%d events, %d evicted):\n%s", res.Trace.Len(), res.Trace.Dropped(), res.Trace.String())
	}
}

// remote submits the case to a hbpsimd daemon or fleet coordinator
// (they serve the same API) and polls it to a terminal state, printing
// the remote result summary. Submission rides out 503 backpressure:
// the client honors the server's Retry-After under a capped jittered
// backoff instead of failing on a momentarily full queue.
func remote(ctx context.Context, base string, spec scenario.TreeSpec) int {
	client := scenario.NewClient(base)
	created, err := client.CreateSuite(ctx, scenario.SuiteSpec{
		Name:  "hbpsim",
		Cases: []scenario.CaseSpec{{Name: "cli", Tree: &spec}},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "submit failed: %v\n", err)
		return 1
	}
	if len(created.Runs) != 1 {
		fmt.Fprintf(os.Stderr, "submit failed: expected 1 run, got %d\n", len(created.Runs))
		return 1
	}
	id := created.Runs[0].ID
	run, err := client.WaitRun(ctx, id, 250*time.Millisecond)
	if err != nil {
		if ctx.Err() != nil {
			// Cancel with a fresh context: the signal context is done.
			cancelCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			client.CancelRun(cancelCtx, id) //nolint:errcheck // best-effort on the interrupt path
			cancel()
			fmt.Fprintln(os.Stderr, "interrupted — cancelled the remote run; partial results may be journaled on the daemon")
			return 130
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if run.State != scenario.StatePassed {
		fmt.Fprintf(os.Stderr, "run %s: %s (%+v)\n", run.ID, run.State, run.Error)
		return 1
	}
	t := run.Result.Tree
	fmt.Printf("run %s passed (attempt %d) on %s\n", run.ID, run.Attempts, base)
	fmt.Printf("mean before attack: %.1f%%\nmean during attack: %.1f%%\n",
		100*t.MeanBefore, 100*t.MeanDuringAttack)
	fmt.Printf("captures: %d attackers, %d collateral; control messages: %d; events: %d\n",
		t.AttackersCaptured, t.CollateralBlocks, t.CtrlMessages, t.EventsFired)
	fmt.Printf("fingerprint: %s\n", run.Result.Fingerprint)
	return 0
}
