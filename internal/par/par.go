// Package par is the repository's bounded worker-pool and
// deterministic-merge layer.
//
// Every quantitative artifact in this repository is produced by running
// many *independent, deterministic* simulated worlds: one world per
// (method, config, seed) measurement cell, one world per explored
// schedule prefix, one world per adversarial campaign. Worlds share no
// mutable state — each owns its clock, memory, bus, engine and guest
// goroutines — so they parallelize perfectly across host cores, while
// each individual world stays single-goroutine and bit-for-bit
// deterministic.
//
// The contract this package enforces:
//
//   - Order preservation: job i writes slot i of its caller's result
//     slice, so a parallel sweep emits byte-identical tables to a
//     serial one.
//   - Deterministic first-error propagation: the error returned is the
//     error of the LOWEST-INDEXED failing job, regardless of which
//     worker hit an error first on the wall clock.
//   - Bounded workers: at most W jobs run concurrently; W <= 1 degrades
//     to a plain serial loop with no goroutines at all.
//   - Cancellation: a context cancels the pool between jobs; the
//     lowest-indexed error still wins over the cancellation error when
//     both occur.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request: values <= 0 select
// runtime.GOMAXPROCS(0) (the tools' -procs default).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Do runs fn(0) .. fn(n-1) on at most workers concurrent goroutines and
// waits for completion. If any job fails, Do returns the error of the
// lowest-indexed failing job; jobs with higher indices than a known
// failure are skipped (their worlds are independent, so skipping cannot
// change lower-indexed results).
func Do(n, workers int, fn func(i int) error) error {
	return DoCtx(context.Background(), n, workers, fn)
}

// DoCtx is Do with cancellation: when ctx is cancelled no new jobs
// start, and ctx.Err() is returned unless a lower-indexed job error
// supersedes it.
func DoCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fast path: no goroutines, no atomics.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64 // next job index to hand out
		firstErr atomic.Int64 // lowest failing index so far (n = none)
		mu       sync.Mutex
		errs     map[int]error
		wg       sync.WaitGroup
	)
	firstErr.Store(int64(n))
	record := func(i int, err error) {
		mu.Lock()
		if errs == nil {
			errs = make(map[int]error)
		}
		errs[i] = err
		mu.Unlock()
		for {
			cur := firstErr.Load()
			if int64(i) >= cur {
				return
			}
			if firstErr.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if int64(i) > firstErr.Load() {
					// A lower-indexed job already failed; this job's
					// outcome can no longer matter.
					continue
				}
				if ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if idx := firstErr.Load(); idx < int64(n) {
		mu.Lock()
		defer mu.Unlock()
		return errs[int(idx)]
	}
	return ctx.Err()
}
