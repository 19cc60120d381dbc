package userdma

// Observability cost pins for the Table-1 initiation hot path (the
// paper's §3.4 measurement loop). Two promises from internal/obs:
//
//   - Disabled tracing is free: present-but-nil obs adds zero
//     allocations per initiation over the pre-obs baseline. The
//     back-to-back loop's only allocations are the records and events
//     of its growing channel backlog (TestBackToBackAllocsTrackBacklog),
//     which predate obs; the marginal-malloc test below pins the obs
//     delta at zero by comparing traced against untraced runs.
//
//   - Observation never perturbs the world: enabling the trace spine
//     changes no simulated picosecond — the event stream is appended
//     outside the cost model, so a traced run and an untraced run of
//     the same workload read the same clock.

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"uldma/internal/obs"
	"uldma/internal/par"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// runInitiations builds the extended-shadow Table-1 world, performs
// iters zero-length initiations in guest code, and reports the host
// mallocs across the run and the simulated time the loop consumed.
// traceCap > 0 enables the trace spine with that capacity.
func runInitiations(tb testing.TB, iters, traceCap int) (mallocs uint64, elapsed sim.Time) {
	tb.Helper()
	method := ExtShadow{}
	m := Machine(method)
	if traceCap > 0 {
		m.EnableTrace(traceCap, obs.Ring)
	}
	var h *Handle
	const src, dst = vm.VAddr(0x10000), vm.VAddr(0x20000)
	p := m.NewProcess("bench", func(c *proc.Context) error {
		if _, err := h.DMA(c, src, dst, 0); err != nil { // warm TLB/engine
			return err
		}
		start := m.Clock.Now()
		for i := 0; i < iters; i++ {
			if _, err := h.DMA(c, src, dst, 0); err != nil {
				return err
			}
		}
		elapsed = m.Clock.Now() - start
		return nil
	})
	var err error
	if h, err = method.Attach(m, p); err != nil {
		tb.Fatal(err)
	}
	if _, err := m.SetupPages(p, src, 1, vm.Read|vm.Write); err != nil {
		tb.Fatal(err)
	}
	if _, err := m.SetupPages(p, dst, 1, vm.Read|vm.Write); err != nil {
		tb.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<30); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if p.Err() != nil {
		tb.Fatal(p.Err())
	}
	return after.Mallocs - before.Mallocs, elapsed
}

// TestObsZeroMarginalAllocDelta: the obs plane must not allocate on
// the initiation hot path — disabled OR enabled (steady state, ring
// full). The residual marginal allocations are the DMA engine's
// backlog of pending zero-length completions, which predates obs; the
// test pins (a) that residual staying small and (b) the
// traced-minus-untraced delta at zero. Marginal framing: a short loop against a 4x longer one on
// identical worlds, so setup, warmup and ring growth cancel.
func TestObsZeroMarginalAllocDelta(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const small, big = 512, 2048
	marginal := func(traceCap int) float64 {
		a, _ := runInitiations(t, small, traceCap)
		b, _ := runInitiations(t, big, traceCap)
		return (float64(b) - float64(a)) / float64(big-small)
	}
	off := marginal(0)
	on := marginal(256) // cap << small*events/op: the ring is in steady state
	if off > 3.5 {
		t.Fatalf("obs-disabled initiation path allocates %.2f mallocs/op; the engine's backlog accounts for ~1.5 — something new crept in",
			off)
	}
	if delta := on - off; delta > 0.5 {
		t.Fatalf("enabling the trace spine costs %.2f mallocs/op on the hot path (off %.2f, on %.2f); the ring must reuse slots",
			delta, off, on)
	}
}

// TestObsTracingNoCycleDelta: enabling the trace spine must not move
// the simulated clock by a single picosecond — identical workload,
// identical elapsed simulated time, traced or not.
func TestObsTracingNoCycleDelta(t *testing.T) {
	const iters = 512
	_, off := runInitiations(t, iters, 0)
	_, on := runInitiations(t, iters, 4096)
	if off != on {
		t.Fatalf("tracing perturbed the world: %v simulated (off) vs %v (on)", off, on)
	}
	if off == 0 {
		t.Fatal("loop consumed no simulated time; the comparison is vacuous")
	}
}

// TestTraceParityAcrossWorkers: the exported trace bytes for one world
// are a pure function of that world, not of how many sibling worlds
// run concurrently. Eight identical worlds are traced under worker
// counts {1, 4, 8}; every world's Perfetto document must be
// byte-identical across all three runs. Runs under -race in CI.
func TestTraceParityAcrossWorkers(t *testing.T) {
	const worlds = 8
	render := func(workers int) [][]byte {
		out := make([][]byte, worlds)
		err := par.Do(worlds, workers, func(i int) error {
			method := ExtShadow{}
			m := Machine(method)
			tr := m.EnableTrace(4096, obs.Ring)
			var h *Handle
			const src, dst = vm.VAddr(0x10000), vm.VAddr(0x20000)
			p := m.NewProcess("bench", func(c *proc.Context) error {
				for k := 0; k < 32; k++ {
					if _, err := h.DMA(c, src, dst, 0); err != nil {
						return err
					}
				}
				return nil
			})
			var err error
			if h, err = method.Attach(m, p); err != nil {
				return err
			}
			if _, err := m.SetupPages(p, src, 1, vm.Read|vm.Write); err != nil {
				return err
			}
			if _, err := m.SetupPages(p, dst, 1, vm.Read|vm.Write); err != nil {
				return err
			}
			if err := m.Run(proc.NewRoundRobin(1<<20), 1<<30); err != nil {
				return err
			}
			if p.Err() != nil {
				return p.Err()
			}
			var buf bytes.Buffer
			if err := obs.WritePerfetto(&buf, []obs.PerfettoProcess{
				{PID: i, Name: "world", Events: tr.Events()},
			}); err != nil {
				return err
			}
			out[i] = buf.Bytes()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	want := render(1)
	for _, e := range want {
		if len(e) == 0 {
			t.Fatal("empty trace document")
		}
	}
	for _, w := range []int{4, 8} {
		got := render(w)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d: world %d trace bytes diverged from serial run", w, i)
			}
		}
	}
}

// BenchmarkObsDisabled is the headline number: the Table-1 initiation
// loop with the observability plane present but disabled. The obs
// contribution is 0 allocs/op — the per-iteration path is a nil-pointer
// check and nothing else. A warm initiation allocates nothing either
// (TestInitiationZeroAllocs); the allocations the report shows come
// from the loop outpacing the engine: each initiation takes ~1.05µs
// against a 2µs startup, so pending zero-length completions pile up,
// and each new one needs a fresh Transfer record and queue event
// (compare against BenchmarkObsEnabled: the delta is the cost of
// tracing, ~0).
func BenchmarkObsDisabled(b *testing.B) {
	method := ExtShadow{}
	m := Machine(method)
	var h *Handle
	const src, dst = vm.VAddr(0x10000), vm.VAddr(0x20000)
	p := m.NewProcess("bench", func(c *proc.Context) error {
		if _, err := h.DMA(c, src, dst, 0); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if _, err := h.DMA(c, src, dst, 0); err != nil {
				return err
			}
		}
		return nil
	})
	var err error
	if h, err = method.Attach(m, p); err != nil {
		b.Fatal(err)
	}
	if _, err := m.SetupPages(p, src, 1, vm.Read|vm.Write); err != nil {
		b.Fatal(err)
	}
	if _, err := m.SetupPages(p, dst, 1, vm.Read|vm.Write); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(proc.NewRoundRobin(1<<30), 1<<62); err != nil {
		b.Fatal(err)
	}
	if p.Err() != nil {
		b.Fatal(p.Err())
	}
}

// BenchmarkObsEnabled is the paid-for counterpart: same loop with the
// trace spine recording into a default-capacity ring.
func BenchmarkObsEnabled(b *testing.B) {
	method := ExtShadow{}
	m := Machine(method)
	m.EnableTrace(0, obs.Ring)
	var h *Handle
	const src, dst = vm.VAddr(0x10000), vm.VAddr(0x20000)
	p := m.NewProcess("bench", func(c *proc.Context) error {
		if _, err := h.DMA(c, src, dst, 0); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if _, err := h.DMA(c, src, dst, 0); err != nil {
				return err
			}
		}
		return nil
	})
	var err error
	if h, err = method.Attach(m, p); err != nil {
		b.Fatal(err)
	}
	if _, err := m.SetupPages(p, src, 1, vm.Read|vm.Write); err != nil {
		b.Fatal(err)
	}
	if _, err := m.SetupPages(p, dst, 1, vm.Read|vm.Write); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(proc.NewRoundRobin(1<<30), 1<<62); err != nil {
		b.Fatal(err)
	}
	if p.Err() != nil {
		b.Fatal(p.Err())
	}
}
