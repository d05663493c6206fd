//go:build !race

package des

// spinLoads bounds a spinning wait between windows, in atomic loads:
// ≈ 0.2 ms on a 2-vCPU x86 VM, about one forest-sharded window, after
// which the waiter parks.
const spinLoads = 200_000
