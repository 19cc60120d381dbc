package userdma

import (
	"testing"

	"uldma/internal/machine"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

// allocRuns is how many warm initiations each allocation pin measures
// in one AllocsPerRun run, so the reported figure is their total, not a
// truncated per-initiation mean.
const allocRuns = 64

// initiationAllocs attaches method to a fresh machine of its preset and
// returns the host allocations of allocRuns warm initiations of size
// bytes between two mapped pages, measured inside the guest through
// DMA or, with direct, through DirectDMA with no scheduler run.
// Each initiation is followed by spin cycles of computation (direct
// also delivers every pending transfer). ok reports whether every
// initiation was accepted; pending is how many more accepted transfers
// await delivery after the measured loop than before it.
func initiationAllocs(t *testing.T, method Method, size uint64, spin int64, direct bool) (allocs float64, ok bool, pending int) {
	t.Helper()
	m := Machine(method)
	const src, dst = vm.VAddr(0x10000), vm.VAddr(0x20000)
	var h *Handle
	ok = true
	measure := func(initiate func() (uint64, error), after func()) {
		loop := func() {
			before := undelivered(m)
			for i := 0; i < allocRuns; i++ {
				st, err := initiate()
				if err != nil {
					t.Error(err)
				}
				ok = ok && st != StatusFailure
				after()
			}
			pending = undelivered(m) - before
		}
		// AllocsPerRun runs the loop once unmeasured first: that warms the
		// TLB, the record pool and the event free list.
		allocs = testing.AllocsPerRun(1, loop)
	}
	p := m.NewProcess("init", func(c *proc.Context) error {
		if !direct {
			measure(func() (uint64, error) { return h.DMA(c, src, dst, size) }, func() { c.Spin(spin) })
		}
		return nil
	})
	var err error
	if h, err = method.Attach(m, p); err != nil {
		t.Fatal(err)
	}
	for _, base := range []vm.VAddr{src, dst} {
		if _, err := m.SetupPages(p, base, 1, vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
	}
	if direct {
		d := &DirectCPU{M: m, P: p}
		measure(func() (uint64, error) { return h.DirectDMA(d, src, dst, size) }, func() {
			m.CPU.Spin(spin)
			m.Settle()
		})
		return allocs, ok, pending
	}
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<30); err != nil {
		t.Fatal(err)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	return allocs, ok, pending
}

// drainSpin is enough computation (13.3µs at 150 MHz) for the engine to
// finish a zero-length transfer's 2µs startup before the next
// initiation, so every measured initiation finds its predecessor
// delivered and its record back in the pool.
const drainSpin = 2000

// TestInitiationZeroAllocs pins the warm initiation paths at zero
// allocations: a zero-length extended-shadow initiation (the
// BenchmarkObsDisabled sequence), a zero-length kernel-level one, the
// key-based and repeated-passing sequences, and an initiation the
// engine refuses, each through DMA in a guest and through DirectDMA on
// the bare CPU; and a zero-length PAL-code initiation, through DMA
// only. Transfer records, their completion events, the caller's
// compiled program and the syscall and CALL_PAL arguments are all
// reused.
func TestInitiationZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		method Method
		size   uint64
		accept bool
	}{
		{"extshadow", ExtShadow{}, 0, true},
		{"kernel", KernelLevel{}, 0, true},
		{"keybased", KeyBased{}, 0, true},
		{"repeated", RepeatedPassing{Len: 5, Barriers: true}, 0, true},
		// Past the end of memory: the engine answers DMA_FAILURE.
		{"refused", ExtShadow{}, 1 << 40, false},
		// CALL_PAL needs a proc.Context: the hosted path refuses PAL.
		{"pal", PALCode{}, 0, true},
	} {
		for _, direct := range []bool{false, true} {
			if direct && tc.method == (PALCode{}) {
				continue
			}
			name := tc.name
			if direct {
				name += "_direct"
			}
			t.Run(name, func(t *testing.T) {
				allocs, ok, _ := initiationAllocs(t, tc.method, tc.size, drainSpin, direct)
				if ok != tc.accept {
					t.Fatalf("initiations accepted = %v, want %v", ok, tc.accept)
				}
				if allocs != 0 {
					t.Fatalf("%d warm initiations allocate %.0f times, want 0", allocRuns, allocs)
				}
			})
		}
	}
}

// undelivered counts the transfers m's engine accepted and has not yet
// delivered.
func undelivered(m *machine.Machine) int {
	ctr := m.Engine.Counters()
	return int(ctr.Started.Value() - ctr.Completed.Value())
}

// TestBackToBackAllocsTrackBacklog bounds the BenchmarkObsDisabled
// loop, which initiates back to back: an extended-shadow initiation
// takes about 1.05µs, less than the engine's 2µs startup, so the
// channel's backlog grows without bound and about every second
// initiation leaves one more zero-length completion pending. Each
// pending completion holds its record and one queue event, so the pool
// and the free list never warm up: a new record (the struct and its
// bound completion method) and a new event are the loop's only
// allocations.
func TestBackToBackAllocsTrackBacklog(t *testing.T) {
	allocs, ok, pending := initiationAllocs(t, ExtShadow{}, 0, 0, false)
	if !ok {
		t.Fatal("an initiation was refused")
	}
	if pending <= 0 {
		t.Fatalf("the backlog did not grow (%d events); the bound is vacuous", pending)
	}
	t.Logf("%d initiations: %.0f allocations, backlog +%d completions", allocRuns, allocs, pending)
	// The heap's backing array may also double as it grows.
	if limit := float64(3*pending + 4); allocs > limit {
		t.Fatalf("%d back-to-back initiations allocate %.0f times; the backlog grew by %d completions (limit %.0f)",
			allocRuns, allocs, pending, limit)
	}
}
