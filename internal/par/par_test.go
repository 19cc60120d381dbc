package par

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// mapJobs maps a pure job function over [0, n) on Do, each job
// writing its own slot — the pattern the experiment runner uses.
func mapJobs(n, workers int, fn func(i int) uint64) ([]uint64, error) {
	out := make([]uint64, n)
	err := Do(n, workers, func(i int) error {
		out[i] = fn(i)
		return nil
	})
	return out, err
}

// TestMapOrderPreserved: results written through Do's job index come
// back in job-index order no matter how workers interleave.
func TestMapOrderPreserved(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		got, err := mapJobs(100, workers, func(i int) uint64 { return uint64(i * i) })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != uint64(i*i) {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestLowestIndexedErrorWins: the error propagated is deterministic —
// always from the lowest failing index, never from whichever worker
// failed first on the wall clock.
func TestLowestIndexedErrorWins(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		err := Do(50, 8, func(i int) error {
			if i == 7 || i == 31 || i == 49 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 7 failed" {
			t.Fatalf("trial %d: err = %v, want job 7's", trial, err)
		}
	}
}

// TestJobsBelowErrorAllRun: every job with an index below the failing
// one completes even when higher jobs are skipped.
func TestJobsBelowErrorAllRun(t *testing.T) {
	var ran [40]atomic.Bool
	err := Do(40, 4, func(i int) error {
		ran[i].Store(true)
		if i == 20 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	for i := 0; i <= 20; i++ {
		if !ran[i].Load() {
			t.Fatalf("job %d below the failure did not run", i)
		}
	}
}

// TestWorkersBound: no more than W jobs are ever in flight.
func TestWorkersBound(t *testing.T) {
	const w = 3
	var cur, peak atomic.Int64
	err := Do(64, w, func(i int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() > w {
		t.Fatalf("peak concurrency %d exceeds %d workers", peak.Load(), w)
	}
}

// TestSerialFastPathRunsInOrder: workers <= 1 degrades to an in-order
// loop on the calling goroutine.
func TestSerialFastPathRunsInOrder(t *testing.T) {
	var order []int
	err := Do(10, 1, func(i int) error {
		order = append(order, i) // safe: serial path has no goroutines
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
	// Serial error path stops at the first failure.
	count := 0
	err = Do(10, 1, func(i int) error {
		count++
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || count != 4 {
		t.Fatalf("serial stop: err=%v count=%d", err, count)
	}
}

// TestCancellation: a cancelled context stops the pool and surfaces
// ctx.Err() when no job error precedes it.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	var once sync.Once
	err := DoCtx(ctx, 1000, 4, func(i int) error {
		ran.Add(1)
		once.Do(cancel)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop the pool (%d jobs ran)", n)
	}
}

// TestMapDeterministicAcrossWorkerCounts: a pure job function run on Do
// yields byte-identical outputs for any worker count — the property the
// sweep parity tests depend on.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	job := func(i int) uint64 {
		// A deterministic pseudo-computation (a SplitMix64 finalizer).
		z := 0xdeadbeef + 0x9e3779b97f4a7c15*uint64(i+1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return z ^ (z >> 27)
	}
	ref, err := mapJobs(64, 1, job)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		got, err := mapJobs(64, w, job)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: result %d differs", w, i)
			}
		}
	}
}

// TestZeroJobs: empty input is a no-op for any worker count.
func TestZeroJobs(t *testing.T) {
	if err := Do(0, 8, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}
