package proc

import (
	"fmt"
	"strings"
	"testing"

	"uldma/internal/bus"
	"uldma/internal/cpu"
	"uldma/internal/phys"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// exploreFixture builds a tiny two-process world around a shared memory
// cell, for exercising the explorer itself.
func exploreFactory(t *testing.T, guarded bool) WorldFactory {
	t.Helper()
	return func() (*World, error) {
		clock := sim.NewClock()
		mem := phys.New(1 << 16)
		b := bus.New(clock, 12_500_000, bus.CostConfig{StoreCycles: 6, LoadRequestCycles: 4, LoadReplyCycles: 3})
		wb := bus.NewWriteBuffer(b, 8, true)
		c := cpu.New(cpu.Config{Freq: 150 * sim.MHz, IssueCycles: 1, CacheHitCycles: 2, TLBEntries: 8},
			clock, new(sim.EventQueue), mem, b, wb)
		r := NewRunner(c, RunnerConfig{})
		// Both processes share one frame read-write.
		mkAS := func(asid int) *vm.AddressSpace {
			as := vm.NewAddressSpace(asid, 8192)
			as.Map(0x10000, 0x8000, vm.Read|vm.Write)
			return as
		}
		// A racy (or guarded) increment: load, spin, store.
		body := func(ctx *Context) error {
			if guarded {
				// "Guarded" here means atomic via a single Swap-free
				// trick: reread-and-verify loop (still only our own
				// primitives, enough for the explorer test).
				for {
					v, err := ctx.Load(0x10000, phys.Size64)
					if err != nil {
						return err
					}
					if err := ctx.Store(0x10000, phys.Size64, v+1); err != nil {
						return err
					}
					// Verify nobody raced us between load and store.
					chk, err := ctx.Load(0x10000, phys.Size64)
					if err != nil {
						return err
					}
					if chk >= 2 { // both increments (or ours on top of theirs) landed
						return nil
					}
					if chk == v+1 {
						return nil
					}
				}
			}
			v, err := ctx.Load(0x10000, phys.Size64)
			if err != nil {
				return err
			}
			ctx.Spin(5)
			return ctx.Store(0x10000, phys.Size64, v+1)
		}
		r.Spawn("p1", mkAS(1), body)
		r.Spawn("p2", mkAS(2), body)
		return &World{
			Runner: r,
			Check: func() error {
				v, err := mem.Read(0x8000, phys.Size64)
				if err != nil {
					return err
				}
				if v != 2 {
					return fmt.Errorf("counter = %d, want 2", v)
				}
				return nil
			},
		}, nil
	}
}

// TestExploreFindsLostUpdate: the classic unguarded read-modify-write
// race MUST have a losing interleaving, and the explorer must find it.
func TestExploreFindsLostUpdate(t *testing.T) {
	res, err := Explore(exploreFactory(t, false), 6, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Fatalf("no lost-update interleaving found in %d schedules", res.Schedules)
	}
	if !strings.Contains(res.CounterexampleErr.Error(), "counter = 1") {
		t.Fatalf("counterexample error = %v", res.CounterexampleErr)
	}
	if res.Schedules == 0 {
		t.Fatal("no schedules executed")
	}
}

// TestExploreBudget: exploration respects its schedule budget.
func TestExploreBudget(t *testing.T) {
	_, err := Explore(exploreFactory(t, false), 6, 1)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		// Budget 1 may find the counterexample first (schedule 1 is
		// the all-p1-first order, which is race-free), so the error is
		// expected here.
		t.Fatalf("budget not enforced: %v", err)
	}
}

// TestExploreAllPassWhenSerial: depth 0 means the fallback round-robin
// runs everything in spawn order — race-free, one schedule, no
// counterexample.
func TestExploreAllPassWhenSerial(t *testing.T) {
	res, err := Explore(exploreFactory(t, false), 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedules != 1 || res.Counterexample != nil {
		t.Fatalf("serial exploration: %+v", res)
	}
}

// TestExploreCountsSchedules: for two 3-slot straight-line processes
// explored to full depth, every leaf is a distinct merge. Process
// bodies here are 2 instructions + 1 completion grant each.
func TestExploreCountsSchedules(t *testing.T) {
	factory := func() (*World, error) {
		clock := sim.NewClock()
		mem := phys.New(1 << 16)
		b := bus.New(clock, 12_500_000, bus.CostConfig{StoreCycles: 6, LoadRequestCycles: 4, LoadReplyCycles: 3})
		wb := bus.NewWriteBuffer(b, 8, true)
		c := cpu.New(cpu.Config{Freq: 150 * sim.MHz, IssueCycles: 1, CacheHitCycles: 2, TLBEntries: 8},
			clock, new(sim.EventQueue), mem, b, wb)
		r := NewRunner(c, RunnerConfig{})
		as := vm.NewAddressSpace(1, 8192)
		body := func(ctx *Context) error {
			ctx.Spin(1)
			ctx.Spin(1)
			return nil
		}
		r.Spawn("a", as, body)
		r.Spawn("b", vm.NewAddressSpace(2, 8192), body)
		return &World{Runner: r, Check: func() error { return nil }}, nil
	}
	res, err := Explore(factory, 12, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	// Each process occupies 3 slots (2 instructions + completion):
	// C(6,3) = 20 distinct merges.
	if res.Schedules != 20 {
		t.Fatalf("schedules = %d, want 20 = C(6,3)", res.Schedules)
	}
}
