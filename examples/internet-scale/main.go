// internet-scale: one sweep point of the internet-scale experiment —
// a seeded power-law AS topology (compressed routing state), a zombie
// population spread across its stub ASes, and flow-level macro-agents
// that expand to per-packet traffic only at honeypot-armed routers.
// The event cost tracks the aggregate attack rate, not the endpoint
// count, so the same machinery sweeps 10^3..10^6 zombies (run the full
// sweep with `hbpsim -scale internet`).
//
// Run with: go run ./examples/internet-scale [-zombies 10000] [-shards 8]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/experiments"
)

func main() {
	zombies := flag.Int("zombies", 10000, "attack population size (hosts scale to 2x)")
	shards := flag.Int("shards", 8, "event-engine shards (results are bit-identical at every width)")
	seed := flag.Int64("seed", 1, "scenario seed")
	flag.Parse()

	cfg := experiments.InternetConfigFor(*zombies, *seed)
	cfg.Shards = *shards
	fmt.Printf("%d zombies among %d hosts across %d power-law ASes (γ=%.1f), %d cluster parts on %d shards\n",
		cfg.Zombies, cfg.Topology.Hosts, cfg.Topology.Graph.ASes, cfg.Topology.Graph.Gamma,
		cfg.Topology.Parts, cfg.Shards)
	fmt.Printf("aggregate attack %.1fx the bottleneck, attack window %.0f..%.0f s of %.0f s\n\n",
		cfg.AttackRate/cfg.Topology.Bottleneck.Bandwidth, cfg.AttackStart, cfg.AttackEnd, cfg.Duration)

	res, err := experiments.RunInternet(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("routing: %s table, %.1f bytes per addressable ID; %d of %d hosts ever built\n",
		res.RouteKind, res.BytesPerNode, res.Endpoints, res.Hosts)
	fmt.Printf("goodput: %.3f before the attack, %.3f during it\n", res.MeanBefore, res.MeanDuringAttack)
	fmt.Printf("captures: %d of %d zombies", res.Captures, cfg.Zombies)
	if n := len(res.CaptureTimes); n > 0 {
		fmt.Printf(" (first +%.1f s, median +%.1f s after attack start)",
			res.CaptureTimes[0], res.CaptureTimes[n/2])
	}
	fmt.Println()
	fmt.Printf("defense: %d control messages, peak state %d of budget %d\n",
		res.CtrlMessages, res.PeakState, res.StateBudget)
	fmt.Printf("engine: %d events in %.2f s wall\n", res.EventsFired, res.Wall.Seconds())
	if !res.Leak.Clean() {
		log.Fatalf("teardown leaked: %+v", res.Leak)
	}
}
