package experiments

import (
	"runtime"
	"sync"
)

// RunTrees executes independent tree scenarios concurrently — each
// scenario owns a private simulator, network and RNGs, so the runs
// share nothing — using up to GOMAXPROCS workers. Results align with
// the input order; the first error aborts remaining work (already
// started runs finish).
func RunTrees(cfgs []TreeConfig) ([]*TreeResult, error) {
	results := make([]*TreeResult, len(cfgs))
	errs := make([]error, len(cfgs))
	workers := max(min(runtime.GOMAXPROCS(0), len(cfgs)), 1)
	//hbplint:ignore shardisolation batch-level join over independent runs: the WaitGroup synchronizes driver goroutines, never two shards of one simulation.
	var wg sync.WaitGroup
	jobs := make(chan int)
	//hbplint:ignore shardisolation first-error latch for the driver pool; no simulation state flows through it.
	var failed sync.Once
	abort := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//hbplint:ignore determinism deliberate batch-level concurrency: every worker owns a private simulator and RNG, and results land in a slot indexed by input position, so the merged output is order-independent.
		go func() {
			defer wg.Done()
			//hbplint:ignore determinism driver-side work queue: job indices only, each run owns a private simulator, results land in input-position slots.
			for i := range jobs {
				r, err := RunTree(cfgs[i])
				results[i], errs[i] = r, err
				if err != nil {
					failed.Do(func() { close(abort) })
				}
			}
		}()
	}
feed:
	for i := range cfgs {
		select {
		//hbplint:ignore determinism driver-side work queue: which worker takes a job never affects results (slots are input-indexed).
		case jobs <- i:
		//hbplint:ignore determinism driver-side abort signal: only stops feeding new jobs, never reorders completed results.
		case <-abort:
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// sweep runs one scenario per (row, defense) cell concurrently and
// returns results indexed [row][defense].
func sweep(base TreeConfig, rows int, defenses []DefenseKind, customize func(cfg *TreeConfig, row int)) ([][]*TreeResult, error) {
	var cfgs []TreeConfig
	for r := 0; r < rows; r++ {
		for _, d := range defenses {
			cfg := base
			cfg.Defense = d
			customize(&cfg, r)
			cfgs = append(cfgs, cfg)
		}
	}
	flat, err := RunTrees(cfgs)
	if err != nil {
		return nil, err
	}
	out := make([][]*TreeResult, rows)
	for r := range out {
		out[r] = flat[r*len(defenses) : (r+1)*len(defenses)]
	}
	return out, nil
}
