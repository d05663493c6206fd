//go:build race

package des

// spinLoads is the spin budget of a race-built binary, where an atomic
// load costs ≈ 30 ns instead of ≈ 1 ns: ≈ 0.2 ms, as in a plain build
// (spin_norace.go), not 6 ms per wait.
const spinLoads = 7_000
