// Package lint is hbplint: an analyzer suite that machine-checks the
// load-bearing invariants of this simulator. The eight contracts it
// enforces exist elsewhere only as comments and runtime panics:
//
//   - packetretain: the pooled-packet ownership rule (internal/netsim
//     Packet doc) — handlers and forward hooks must not retain a
//     *netsim.Packet or its Payload past the callback; clone instead.
//   - groundtruth: defense code must never read the ground-truth
//     fields Packet.TrueSrc, Packet.Legit or call Packet.Spoofed();
//     only internal/metrics, internal/experiments and test files may.
//   - determinism: simulation code must not consult wall-clock time,
//     the global math/rand generators, spawn goroutines, use raw
//     channels, or let map iteration order escape into scheduled
//     events or emitted results.
//   - boundedgrowth: defense packages must not grow raw maps keyed by
//     packet-derived values (Src, Mark, FlowID, Seq); attacker-
//     controlled state goes through internal/bounded.
//   - hotalloc: functions reachable from a //hbplint:hotpath root must
//     not allocate.
//   - shardisolation: simulation state stays shard-private; cross-shard
//     flow rides des.Channel.
//   - locksafety: the service packages never hold a mutex across a
//     blocking operation.
//   - journalorder: a dispatch-state transition reaches the journal on
//     every path before the method returns.
//
// The framework is this package's own (analyzer.go): an Analyzer runs
// over a Pass, and a Checker runs the suite over packages in
// dependency order, keeping the per-function facts that carry a
// verdict across package boundaries in memory. cmd/hbplint loads
// packages with go list; linttest loads the testdata corpus. Run the
// suite with:
//
//	go run ./cmd/hbplint ./...
//
// A diagnostic can be suppressed with a directive comment on the same
// line or the line immediately above:
//
//	//hbplint:ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself a
// diagnostic. See DESIGN.md, "Invariants & static analysis".
package lint

import (
	"strings"
)

// Analyzers returns the full hbplint suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		PacketRetain,
		GroundTruth,
		Determinism,
		BoundedGrowth,
		HotAlloc,
		ShardIsolation,
		LockSafety,
		JournalOrder,
	}
}

// netsimPkg reports whether path is the simulator-core package that
// defines Packet/Node/Port. Matched by suffix so the analyzers work
// both on the real tree (repro/internal/netsim) and on testdata stubs
// (plain "netsim").
func netsimPkg(path string) bool {
	return path == "netsim" || strings.HasSuffix(path, "/netsim")
}

// groundTruthAllowed reports whether a package may read ground-truth
// packet fields: the metrics aggregator and the experiment harness
// (which labels traffic and scores defenses against the labels).
func groundTruthAllowed(path string) bool {
	switch lastSegment(path) {
	case "metrics", "experiments":
		return true
	}
	return false
}

// defensePkgSuffixes are the packages that hold defense state which
// attacker-controlled packets can grow; boundedgrowth applies here.
var defensePkgSuffixes = []string{
	"internal/core",
	"internal/asnet",
	"internal/hbp",
	"internal/roaming",
	"internal/pushback",
	"internal/stackpi",
	"internal/spie",
}

// defensePkg reports whether path is one of the defense packages.
func defensePkg(path string) bool {
	for _, s := range defensePkgSuffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// simulationPkg reports whether determinism rules apply to path:
// everything except command/example drivers (which may time wall-clock
// progress), the scenario service and fleet dispatch layers
// (wall-clock supervisors over simulations, not simulations themselves
// — their deadlines, leases, backoff and journal timestamps are real
// time by design, and the journal ledger fsyncs real files), and the
// lint suite itself.
func simulationPkg(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		switch seg {
		case "cmd", "examples", "main":
			return false
		case "scenario", "fleet", "jsonl":
			return false
		case "lint", "linttest":
			return false
		}
	}
	return true
}

func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
