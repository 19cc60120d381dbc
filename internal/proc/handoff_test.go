package proc

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"uldma/internal/phys"
	"uldma/internal/sim"
)

// spinner is a guest that never finishes: one slot per iteration.
func spinner(ctx *Context) error {
	for {
		ctx.Spin(1)
	}
}

// TestNoGoroutineLeak: every guest coroutine is gone once its runner
// is finished with — after a complete Run, after a partial run torn
// down by Shutdown, and for processes that were spawned but never
// granted a slot. Explore abandons thousands of worlds through
// Shutdown, so a leak there would pile up.
func TestNoGoroutineLeak(t *testing.T) {
	const n = 8
	base := runtime.NumGoroutine()
	check := func(phase string) {
		t.Helper()
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("%s: %d goroutines, baseline %d", phase, got, base)
		}
	}

	f := newFixture(t, RunnerConfig{})
	for i := 0; i < n; i++ {
		f.r.Spawn("done", f.space(t, i+1, ramPage), func(ctx *Context) error {
			ctx.Spin(1)
			ctx.Spin(1)
			return nil
		})
	}
	if err := f.r.Run(NewRoundRobin(1), 1000); err != nil {
		t.Fatal(err)
	}
	check("after a complete Run")

	f = newFixture(t, RunnerConfig{})
	for i := 0; i < n; i++ {
		f.r.Spawn("loop", f.space(t, i+1, ramPage), spinner)
	}
	if err := f.r.Run(NewRoundRobin(3), 5*n); err == nil {
		t.Fatal("spinners finished within the slot budget")
	}
	f.r.Shutdown()
	check("after a partial run and Shutdown")

	f = newFixture(t, RunnerConfig{})
	for i := 0; i < n; i++ {
		f.r.Spawn("idle", f.space(t, i+1, ramPage), spinner)
	}
	check("after Spawn alone") // coroutines are created at the first slot
	f.r.Shutdown()
	check("after Shutdown of never-granted processes")
}

// guestBug is a guest's own panic value.
type guestBug struct{ msg string }

// TestGuestPanicSurfacesOnCaller: a guest panic resumes on the
// goroutine that called Run, with the guest's own value, instead of
// crashing the host from a goroutine nobody can recover. The runner's
// other processes can still be shut down afterwards.
func TestGuestPanicSurfacesOnCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	f := newFixture(t, RunnerConfig{})
	bad := f.r.Spawn("bad", f.space(t, 1, ramPage), func(ctx *Context) error {
		ctx.Spin(1)
		ctx.Spin(1) // the peer runs between these, so it is suspended mid-body
		panic(guestBug{"boom"})
	})
	peer := f.r.Spawn("peer", f.space(t, 2, ramPage+pageSize), spinner)

	got := func() (v any) {
		defer func() { v = recover() }()
		_ = f.r.Run(NewRoundRobin(1), 100)
		return nil
	}()
	if got != (guestBug{"boom"}) {
		t.Fatalf("recovered %#v, want the guest's guestBug{boom}", got)
	}
	if bad.State() != Done {
		t.Fatal("panicked process still schedulable")
	}
	if peer.Instructions() == 0 || peer.State() == Done {
		t.Fatalf("peer not suspended mid-body (instrs %d, state %v)", peer.Instructions(), peer.State())
	}
	f.r.Shutdown()
	if peer.State() != Done {
		t.Fatal("Shutdown did not mark the peer done")
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Shutdown, baseline %d", n, base)
	}
}

// TestSlotHandoffZeroAllocs: in steady state a slot — context switch,
// resume, instruction, yield — allocates nothing.
func TestSlotHandoffZeroAllocs(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	f.r.Spawn("A", f.space(t, 1, ramPage), spinner)
	f.r.Spawn("B", f.space(t, 2, ramPage+pageSize), spinner)
	defer f.r.Shutdown()
	policy := NewRoundRobin(1)
	for i := 0; i < 100; i++ {
		f.r.StepPolicy(policy)
	}
	if allocs := testing.AllocsPerRun(1000, func() { f.r.StepPolicy(policy) }); allocs != 0 {
		t.Fatalf("%v allocs per slot, want 0", allocs)
	}
}

// BenchmarkSlotHandoff: two spinning processes on RoundRobin(1), so
// every op is one slot and one context switch — the scheduler's
// handoff cost with almost no model work around it.
func BenchmarkSlotHandoff(b *testing.B) {
	f := newFixture(b, RunnerConfig{})
	f.r.Spawn("A", f.space(b, 1, ramPage), spinner)
	f.r.Spawn("B", f.space(b, 2, ramPage+pageSize), spinner)
	defer f.r.Shutdown()
	policy := NewRoundRobin(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.r.StepPolicy(policy)
	}
}

// TestSelfRegrantZeroAllocs: a guest that keeps the CPU under Run
// re-grants its own slot with no allocation. Each round the guest runs
// a burst of slots and then parks itself; with nothing pending to wake
// it, Run returns the preallocated ErrDeadlock, so a whole Run round
// allocates nothing unless a slot does.
func TestSelfRegrantZeroAllocs(t *testing.T) {
	const burst = 1000
	f := newFixture(t, RunnerConfig{})
	p := f.r.Spawn("A", f.space(t, 1, ramPage), func(ctx *Context) error {
		for {
			for i := 0; i < burst; i++ {
				ctx.Spin(1)
			}
			ctx.Process().BlockUntil(sim.Never) // until the test wakes it
		}
	})
	defer f.r.Shutdown()
	policy := NewRoundRobin(1 << 20)
	round := func() {
		if err := f.r.Run(policy, 1<<62); !errors.Is(err, ErrDeadlock) {
			t.Fatalf("Run = %v, want the parked guest's deadlock", err)
		}
		p.Wake(f.clock.Now())
	}
	round()
	before := p.Instructions()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("%v allocs per %d-slot Run, want 0", allocs, burst)
	}
	if got := p.Instructions() - before; got != 21*burst {
		t.Fatalf("%d instructions over 21 rounds, want %d", got, 21*burst)
	}
}

// BenchmarkSelfRegrant: one spinning process on RoundRobin(1<<20)
// under Run, so every op is one slot the guest re-grants to itself —
// the slot cost when the policy keeps the running process.
func BenchmarkSelfRegrant(b *testing.B) {
	f := newFixture(b, RunnerConfig{})
	f.r.Spawn("A", f.space(b, 1, ramPage), spinner)
	defer f.r.Shutdown()
	policy := NewRoundRobin(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	if err := f.r.Run(policy, uint64(b.N)); !errors.Is(err, ErrSlotBudget) {
		b.Fatal(err)
	}
}

// BenchmarkSelfRegrantMix: twelve spinning processes on RoundRobin(9)
// under Run, the initiate workload's shape, so every op is one slot
// and eight of nine keep the running guest with eleven live peers —
// the per-slot cost BenchmarkSelfRegrant measures without peers.
func BenchmarkSelfRegrantMix(b *testing.B) {
	f := newFixture(b, RunnerConfig{})
	for i := 0; i < 12; i++ {
		f.r.Spawn(fmt.Sprint("P", i), f.space(b, i+1, ramPage+phys.Addr(i)*pageSize), spinner)
	}
	defer f.r.Shutdown()
	policy := NewRoundRobin(9)
	b.ReportAllocs()
	b.ResetTimer()
	if err := f.r.Run(policy, uint64(b.N)); !errors.Is(err, ErrSlotBudget) {
		b.Fatal(err)
	}
}
