package coll

import (
	"errors"
	"fmt"
	"testing"

	"uldma/internal/fault"
	"uldma/internal/proc"
	"uldma/internal/sim"
)

// TestResilientUnderHeavyDrop: with 80% of notify writes lost (plus
// duplicates and reordering), the resilient collectives still complete
// with exact results — the bounded fallback reads the published cells
// over the reliable atomic channel.
func TestResilientUnderHeavyDrop(t *testing.T) {
	const n, rounds = 3, 5
	w := newWorld(t, n)
	w.cluster.Fabric.SetFaultPlane(fault.New(fault.Plan{Default: fault.LinkFaults{
		Drop:      0.8,
		Dup:       0.1,
		Reorder:   0.3,
		ReorderBy: 20 * sim.Microsecond,
	}}, 11))
	results := make([][]uint64, n)
	wrapped := make([]*Resilient, n)
	for i := 0; i < n; i++ {
		i := i
		w.bodies[i] = func(c *proc.Context, comm *Comm) error {
			r := NewResilient(comm)
			wrapped[i] = r
			for round := 0; round < rounds; round++ {
				if err := r.Barrier(c); err != nil {
					return fmt.Errorf("round %d barrier: %w", round, err)
				}
				total, err := r.AllReduceSum(c, uint64((i+1)*(round+1)))
				if err != nil {
					return fmt.Errorf("round %d reduce: %w", round, err)
				}
				results[i] = append(results[i], total)
			}
			return nil
		}
	}
	w.run(t)
	for round := 0; round < rounds; round++ {
		want := uint64(0)
		for i := 0; i < n; i++ {
			want += uint64((i + 1) * (round + 1))
		}
		for i := 0; i < n; i++ {
			if results[i][round] != want {
				t.Fatalf("rank %d round %d: total %d, want %d", i, round, results[i][round], want)
			}
		}
	}
	var fallbacks uint64
	for _, r := range wrapped {
		fallbacks += r.Counters().Fallbacks.Value()
	}
	if fallbacks == 0 {
		t.Fatal("no wait ever fell back — the drop plan did not exercise recovery")
	}
}

// TestResilientFaultFree: on a clean fabric the wrapper behaves exactly
// like the base Comm — fast path only, no probes.
func TestResilientFaultFree(t *testing.T) {
	const n = 3
	w := newWorld(t, n)
	wrapped := make([]*Resilient, n)
	for i := 0; i < n; i++ {
		i := i
		w.bodies[i] = func(c *proc.Context, comm *Comm) error {
			r := NewResilient(comm)
			wrapped[i] = r
			if err := r.Barrier(c); err != nil {
				return err
			}
			total, err := r.AllReduceSum(c, uint64(i+1))
			if err != nil {
				return err
			}
			if total != n*(n+1)/2 {
				return fmt.Errorf("total = %d", total)
			}
			return nil
		}
	}
	w.run(t)
	for i, r := range wrapped {
		if s := r.Counters(); s.Fallbacks != 0 || s.Probes != 0 {
			t.Fatalf("rank %d paid recovery traffic on a clean fabric: %+v", i, s)
		}
	}
}

// TestResilientGivesUp: the retry budget is a real bound — a waiter
// whose peer never arrives stops with ErrGaveUp instead of spinning
// forever.
func TestResilientGivesUp(t *testing.T) {
	const n = 2
	w := newWorld(t, n)
	var gaveUp error
	w.bodies[0] = func(c *proc.Context, comm *Comm) error {
		r := NewResilient(comm)
		r.SpinSlots, r.Retries = 4, 2
		gaveUp = r.Barrier(c)
		return nil // the error is the expected outcome under test
	}
	w.bodies[1] = func(c *proc.Context, comm *Comm) error {
		return nil // never enters the collective
	}
	w.run(t)
	if !errors.Is(gaveUp, ErrGaveUp) {
		t.Fatalf("barrier against an absent peer returned %v, want ErrGaveUp", gaveUp)
	}
}
