package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"searchmem/internal/workload"
)

// This file is the deterministic parallel sweep engine (DESIGN.md §10).
//
// A sweep evaluates one configuration ("point") per index over a memoized
// workload recording. Points are independent cache simulations, so they fan
// out across worker goroutines; determinism is preserved because
//
//   - results land in a slot-per-index slice (collection order never depends
//     on scheduling), and
//   - every converted sweep drives its shared runner through a Replayer with
//     a uniform key set per group (or pre-records heterogeneous keys via
//     Replayer.Record before fanning out), so recording order — the only
//     stateful part — is identical to the serial engine's.
//
// With Options.Parallel off, runPoints degenerates to a plain serial loop
// over the same point function, byte-identical by construction.

// sweepWorkers picks the worker count for an n-point sweep. Serial mode and
// degenerate sweeps get 1. Parallel mode uses GOMAXPROCS but never fewer
// than 2 workers, so the concurrent paths are exercised (and race-checked)
// even on single-core hosts; maxWorkers > 0 caps the fan-out for
// memory-heavy sweeps that build fresh workloads per point.
func (c *Context) sweepWorkers(n, maxWorkers int) int {
	if !c.Opts.Parallel || n <= 1 {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	if maxWorkers > 0 && w > maxWorkers {
		w = maxWorkers
	}
	if w > n {
		w = n
	}
	return w
}

// runPoints evaluates point(0..n-1) and returns the results in index order.
// Under Options.Parallel the points run on sweepWorkers(n, maxWorkers)
// goroutines with work-stealing over an atomic counter; otherwise they run
// in a serial loop. A panicking point does not wedge the sweep: workers
// capture per-index panics and the lowest-index one is re-raised after all
// workers finish, so failure behavior is deterministic too.
func runPoints[T any](c *Context, maxWorkers, n int, point func(i int) T) []T {
	out := make([]T, n)
	workers := c.sweepWorkers(n, maxWorkers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = point(i)
		}
		return out
	}

	// Workers collect results (and panics) into worker-local slices merged
	// after the barrier. Storing straight into out[i] from every worker
	// false-shares cache lines whenever T is small — adjacent indices live
	// on one line, and the work-stealing counter hands adjacent indices to
	// different workers — which showed up as parallel sweeps barely pacing
	// their serial equivalents. Collection order still never affects the
	// result: each value lands in its own index slot at merge time.
	type indexed struct {
		i int
		v T
	}
	type failure struct {
		i int
		r any
	}
	vals := make([][]indexed, workers)
	fails := make([][]failure, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var locals []indexed
			var panics []failure
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics = append(panics, failure{i: i, r: r})
						}
					}()
					locals = append(locals, indexed{i: i, v: point(i)})
				}()
			}
			vals[w], fails[w] = locals, panics
		}(w)
	}
	wg.Wait()
	worst := failure{i: -1}
	for _, fs := range fails {
		for _, f := range fs {
			if worst.i < 0 || f.i < worst.i {
				worst = f
			}
		}
	}
	if worst.i >= 0 {
		panic(fmt.Sprintf("sweep point %d: %v", worst.i, worst.r))
	}
	for _, vs := range vals {
		for _, e := range vs {
			out[e.i] = e.v
		}
	}
	return out
}

// measurePoints evaluates workload.Measure for each config over the shared
// recording, one sweep point per config. The replay keys are pre-recorded
// serially in config order, so recording order matches the serial engine
// and results are byte-identical for any worker count.
func measurePoints(c *Context, r *workload.Replayer, mcs []workload.MeasureConfig) []workload.Metrics {
	for _, mc := range mcs {
		workload.PreRecord(r, mc)
	}
	return runPoints(c, 0, len(mcs), func(i int) workload.Metrics { return workload.Measure(r, mcs[i]) })
}
