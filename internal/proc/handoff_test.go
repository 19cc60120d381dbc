package proc

import (
	"runtime"
	"testing"
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
// granted a slot. Explore and ExploreParallel abandon thousands of
// worlds through Shutdown, so a leak there would pile up.
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
