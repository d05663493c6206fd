// Package repro is a Go reproduction of "Honeypot back-propagation
// for mitigating spoofing distributed Denial-of-Service attacks"
// (Khattab, Melhem, Mossé, Znati — J. Parallel Distrib. Comput. 66,
// 2006; preliminary version at SSN/IPDPS 2006).
//
// The library is organized as substrates under internal/ (see
// DESIGN.md for the full inventory):
//
//   - internal/des        — discrete-event simulation engine
//   - internal/netsim     — packet-level network simulator
//   - internal/topology   — string and Fig.7-matched tree topologies
//   - internal/traffic    — CBR / on-off / follower / client agents
//   - internal/hashchain  — backward one-way hash chain
//   - internal/roaming    — roaming-honeypots server pool (Sec. 4)
//   - internal/core       — honeypot back-propagation (Secs. 5–6)
//   - internal/asnet      — inter-AS scheme with HSMs (Sec. 5.1)
//   - internal/pushback   — ACC/Pushback baseline
//   - internal/analysis   — capture-time model (Sec. 7, Eqs. 1–12)
//   - internal/metrics    — throughput and capture-time measurement
//   - internal/experiments— per-figure scenario runners (Sec. 8)
//
// Entry points: cmd/hbpsim runs one scenario, locally or on a service
// (-server); cmd/figures regenerates every evaluated table/figure,
// including the internet-scale sweep; examples/ holds three library
// walk-throughs and the service and fleet quickstarts; and
// bench_test.go (this package) holds the design ablations plus
// substrate micro-benchmarks.
package repro
