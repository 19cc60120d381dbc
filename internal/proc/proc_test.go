package proc

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"uldma/internal/bus"
	"uldma/internal/cpu"
	"uldma/internal/phys"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

const (
	pageSize = 8192
	ramPage  = phys.Addr(0x40000)
)

type fixture struct {
	r     *Runner
	clock *sim.Clock
	mem   *phys.Memory
}

func newFixture(t testing.TB, cfg RunnerConfig) *fixture {
	t.Helper()
	clock := sim.NewClock()
	mem := phys.New(1 << 20)
	b := bus.New(clock, 12_500_000, bus.CostConfig{StoreCycles: 6, LoadRequestCycles: 4, LoadReplyCycles: 4})
	wb := bus.NewWriteBuffer(b, 8, true)
	c := cpu.New(cpu.Config{Freq: 150 * sim.MHz, IssueCycles: 1, CacheHitCycles: 2, TLBEntries: 16}, clock, sim.NewEventQueue(), mem, b, wb)
	return &fixture{r: NewRunner(c, cfg), clock: clock, mem: mem}
}

func (f *fixture) space(t testing.TB, asid int, frame phys.Addr) *vm.AddressSpace {
	t.Helper()
	as := vm.NewAddressSpace(asid, pageSize)
	if err := as.Map(0x10000, frame, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	return as
}

func TestSingleProcessRuns(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	as := f.space(t, 1, ramPage)
	var loaded uint64
	p := f.r.Spawn("solo", as, func(ctx *Context) error {
		if err := ctx.Store(0x10000, phys.Size64, 42); err != nil {
			return err
		}
		v, err := ctx.Load(0x10000, phys.Size64)
		loaded = v
		return err
	})
	if err := f.r.Run(NewRoundRobin(4), 1000); err != nil {
		t.Fatal(err)
	}
	if p.State() != Done || p.Err() != nil {
		t.Fatalf("state=%v err=%v", p.State(), p.Err())
	}
	if loaded != 42 {
		t.Fatalf("loaded = %d", loaded)
	}
	if p.Instructions() != 2 {
		t.Fatalf("instructions = %d", p.Instructions())
	}
	if p.Name() != "solo" || p.PID() != 1 || p.AddressSpace() != as {
		t.Fatal("process accessors wrong")
	}
}

func TestGuestErrorRecorded(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	boom := errors.New("boom")
	p := f.r.Spawn("bad", f.space(t, 1, ramPage), func(ctx *Context) error {
		ctx.Spin(1)
		return boom
	})
	if err := f.r.Run(NewRoundRobin(1), 100); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(p.Err(), boom) {
		t.Fatalf("Err() = %v", p.Err())
	}
}

func TestRoundRobinInterleaving(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	var order []string
	mk := func(name string) Body {
		return func(ctx *Context) error {
			for i := 0; i < 3; i++ {
				ctx.Spin(1)
				order = append(order, name)
			}
			return nil
		}
	}
	f.r.Spawn("A", f.space(t, 1, ramPage), mk("A"))
	f.r.Spawn("B", f.space(t, 2, ramPage+pageSize), mk("B"))
	if err := f.r.Run(NewRoundRobin(1), 100); err != nil {
		t.Fatal(err)
	}
	want := "A B A B A B"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("quantum-1 order = %q, want %q", got, want)
	}
}

func TestRoundRobinQuantum(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	var order []string
	mk := func(name string) Body {
		return func(ctx *Context) error {
			for i := 0; i < 4; i++ {
				ctx.Spin(1)
				order = append(order, name)
			}
			return nil
		}
	}
	f.r.Spawn("A", f.space(t, 1, ramPage), mk("A"))
	f.r.Spawn("B", f.space(t, 2, ramPage+pageSize), mk("B"))
	if err := f.r.Run(NewRoundRobin(2), 100); err != nil {
		t.Fatal(err)
	}
	want := "A A B B A A B B"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("quantum-2 order = %q, want %q", got, want)
	}
}

func TestScriptedSchedule(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	var order []string
	mk := func(name string, n int) Body {
		return func(ctx *Context) error {
			for i := 0; i < n; i++ {
				ctx.Spin(1)
				order = append(order, name)
			}
			return nil
		}
	}
	a := f.r.Spawn("A", f.space(t, 1, ramPage), mk("A", 3))
	b := f.r.Spawn("B", f.space(t, 2, ramPage+pageSize), mk("B", 2))
	script := NewScripted(a.PID(), b.PID(), b.PID(), a.PID(), a.PID())
	if err := f.r.Run(script, 100); err != nil {
		t.Fatal(err)
	}
	want := "A B B A A"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("scripted order = %q, want %q", got, want)
	}
	if !script.Exhausted() {
		t.Fatal("script not exhausted")
	}
}

func TestScriptedFallbackAfterExhaustion(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	n := 0
	f.r.Spawn("A", f.space(t, 1, ramPage), func(ctx *Context) error {
		for i := 0; i < 5; i++ {
			ctx.Spin(1)
			n++
		}
		return nil
	})
	// Script shorter than the program: remaining slots fall back.
	if err := f.r.Run(NewScripted(1, 1), 100); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("process ran %d/5 steps", n)
	}
}

func TestScriptedSkipsFinished(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	a := f.r.Spawn("A", f.space(t, 1, ramPage), func(ctx *Context) error {
		ctx.Spin(1)
		return nil
	})
	ran := false
	b := f.r.Spawn("B", f.space(t, 2, ramPage+pageSize), func(ctx *Context) error {
		ctx.Spin(1)
		ran = true
		return nil
	})
	// A finishes after 2 slots (1 instr + completion grant); later A
	// entries must be skipped, B still runs.
	if err := f.r.Run(NewScripted(a.PID(), a.PID(), a.PID(), a.PID(), b.PID()), 100); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("B never ran")
	}
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) string {
		f := newFixture(t, RunnerConfig{})
		var order []string
		mk := func(name string) Body {
			return func(ctx *Context) error {
				for i := 0; i < 5; i++ {
					ctx.Spin(1)
					order = append(order, name)
				}
				return nil
			}
		}
		f.r.Spawn("A", f.space(t, 1, ramPage), mk("A"))
		f.r.Spawn("B", f.space(t, 2, ramPage+pageSize), mk("B"))
		if err := f.r.Run(NewRandom(seed), 1000); err != nil {
			t.Fatal(err)
		}
		return strings.Join(order, "")
	}
	if run(7) != run(7) {
		t.Fatal("same seed produced different schedules")
	}
	if run(7) == run(8) && run(9) == run(7) {
		t.Fatal("different seeds all produced identical schedules")
	}
}

func TestContextSwitchCostAndHooks(t *testing.T) {
	f := newFixture(t, RunnerConfig{SwitchCycles: 600})
	var hookLog []string
	f.r.AddSwitchHook(func(from, to *Process) {
		fromName := "<none>"
		if from != nil {
			fromName = from.Name()
		}
		hookLog = append(hookLog, fromName+"->"+to.Name())
	})
	mk := func() Body {
		return func(ctx *Context) error {
			ctx.Spin(1)
			ctx.Spin(1)
			return nil
		}
	}
	f.r.Spawn("A", f.space(t, 1, ramPage), mk())
	f.r.Spawn("B", f.space(t, 2, ramPage+pageSize), mk())
	if err := f.r.Run(NewRoundRobin(1), 100); err != nil {
		t.Fatal(err)
	}
	s := f.r.Stats()
	if s.Switches == 0 || s.SwitchTime == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if len(hookLog) != int(s.Switches) {
		t.Fatalf("hook ran %d times for %d switches", len(hookLog), s.Switches)
	}
	if hookLog[0] != "<none>->A" || hookLog[1] != "A->B" {
		t.Fatalf("hook log = %v", hookLog)
	}
}

func TestTLBFlushOnSwitchOption(t *testing.T) {
	f := newFixture(t, RunnerConfig{FlushTLBOnSwitch: true})
	as := f.space(t, 1, ramPage)
	f.r.Spawn("A", as, func(ctx *Context) error {
		ctx.Load(0x10000, phys.Size64)
		ctx.Load(0x10000, phys.Size64)
		return nil
	})
	f.r.Spawn("B", f.space(t, 2, ramPage+pageSize), func(ctx *Context) error {
		ctx.Load(0x10000, phys.Size64)
		ctx.Load(0x10000, phys.Size64)
		return nil
	})
	if err := f.r.Run(NewRoundRobin(1), 100); err != nil {
		t.Fatal(err)
	}
	// Alternating single-instruction quanta with flushes: every load
	// misses.
	if misses := f.r.CPU().TLB().Stats().Misses; misses != 4 {
		t.Fatalf("TLB misses = %d, want 4 (flush per switch)", misses)
	}
}

func TestSyscallRunsUninterrupted(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	handler := &recordingSyscalls{cpu: f.r.CPU()}
	f.r.SetSyscallHandler(handler)
	var observed []string
	f.r.Spawn("A", f.space(t, 1, ramPage), func(ctx *Context) error {
		v, err := ctx.Syscall(7, 10, 20)
		if err != nil {
			return err
		}
		observed = append(observed, fmt.Sprintf("A:ret=%d", v))
		return nil
	})
	f.r.Spawn("B", f.space(t, 2, ramPage+pageSize), func(ctx *Context) error {
		ctx.Spin(1)
		observed = append(observed, "B")
		return nil
	})
	// Quantum 1 would interleave B between any two preemptible points of
	// A — but the syscall is one slot, so the handler's internal steps
	// never interleave with B.
	if err := f.r.Run(NewRoundRobin(1), 100); err != nil {
		t.Fatal(err)
	}
	if handler.sawMode != cpu.Kernel {
		t.Fatalf("handler ran in %v mode", handler.sawMode)
	}
	if f.r.CPU().Mode() != cpu.User {
		t.Fatal("mode not restored after syscall")
	}
	if handler.num != 7 || len(handler.args) != 2 || handler.args[0] != 10 {
		t.Fatalf("handler saw num=%d args=%v", handler.num, handler.args)
	}
	if len(observed) != 2 || observed[0] != "A:ret=30" {
		t.Fatalf("observed = %v", observed)
	}
}

type recordingSyscalls struct {
	cpu     *cpu.CPU
	num     int
	args    []uint64
	sawMode cpu.Mode
}

func (h *recordingSyscalls) Syscall(p *Process, num int, args []uint64) (uint64, error) {
	h.num, h.args = num, args
	h.sawMode = h.cpu.Mode()
	h.cpu.Spin(100) // kernel work happens inside the slot
	sum := uint64(0)
	for _, a := range args {
		sum += a
	}
	return sum, nil
}

func TestSyscallWithoutHandler(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	var got error
	f.r.Spawn("A", f.space(t, 1, ramPage), func(ctx *Context) error {
		_, got = ctx.Syscall(1)
		return nil
	})
	if err := f.r.Run(NewRoundRobin(1), 100); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("syscall without handler succeeded")
	}
}

func TestPALCall(t *testing.T) {
	f := newFixture(t, RunnerConfig{PALCallCycles: 30})
	f.r.InstallPAL("user_level_dma", func(p *Process, args []uint64) (uint64, error) {
		if f.r.CPU().Mode() != cpu.PAL {
			return 0, errors.New("not in PAL mode")
		}
		return args[0] * 2, nil
	})
	var ret uint64
	var err error
	f.r.Spawn("A", f.space(t, 1, ramPage), func(ctx *Context) error {
		ret, err = ctx.PALCall("user_level_dma", 21)
		return err
	})
	start := f.clock.Now()
	if e := f.r.Run(NewRoundRobin(1), 100); e != nil {
		t.Fatal(e)
	}
	if err != nil || ret != 42 {
		t.Fatalf("PAL ret=%d err=%v", ret, err)
	}
	if f.r.CPU().Mode() != cpu.User {
		t.Fatal("mode not restored after PAL call")
	}
	if f.clock.Now()-start < (150 * sim.MHz).Cycles(30) {
		t.Fatal("PAL dispatch overhead not charged")
	}
}

func TestPALCallUnknown(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	var got error
	f.r.Spawn("A", f.space(t, 1, ramPage), func(ctx *Context) error {
		_, got = ctx.PALCall("nope")
		return nil
	})
	if err := f.r.Run(NewRoundRobin(1), 100); err != nil {
		t.Fatal(err)
	}
	if got == nil || !strings.Contains(got.Error(), "not installed") {
		t.Fatalf("unknown PAL call: %v", got)
	}
}

func TestSlotBudgetAndShutdown(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	f.r.Spawn("loop", f.space(t, 1, ramPage), func(ctx *Context) error {
		for {
			ctx.Spin(1)
		}
	})
	err := f.r.Run(NewRoundRobin(1), 50)
	if !errors.Is(err, ErrSlotBudget) {
		t.Fatalf("err = %v, want slot budget", err)
	}
	f.r.Shutdown() // must not hang; guest coroutine unwinds
	if f.r.Processes()[0].State() != Done {
		t.Fatal("shutdown did not mark process done")
	}
}

func TestStepDrivesSingleSlots(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	var order []string
	mk := func(name string) Body {
		return func(ctx *Context) error {
			ctx.Spin(1)
			order = append(order, name+"1")
			ctx.Spin(1)
			order = append(order, name+"2")
			return nil
		}
	}
	a := f.r.Spawn("A", f.space(t, 1, ramPage), mk("A"))
	b := f.r.Spawn("B", f.space(t, 2, ramPage+pageSize), mk("B"))
	f.r.Step(a)
	f.r.Step(b)
	f.r.Step(b)
	f.r.Step(a)
	want := "A1 B1 B2 A2"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("stepped order = %q, want %q", got, want)
	}
	// Finish both (completion grants).
	f.r.Step(a)
	f.r.Step(b)
	if a.State() != Done || b.State() != Done {
		t.Fatal("processes not done after completion grants")
	}
}

func TestStepDonePanics(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	a := f.r.Spawn("A", f.space(t, 1, ramPage), func(ctx *Context) error { return nil })
	f.r.Step(a) // preamble token (instruction-free body)
	f.r.Step(a) // completion grant
	defer func() {
		if recover() == nil {
			t.Fatal("Step on done process did not panic")
		}
	}()
	f.r.Step(a)
}

// blockingSyscalls blocks the caller for a fixed duration on syscall 0.
type blockingSyscalls struct {
	c   *cpu.CPU
	dur sim.Time
}

func (h *blockingSyscalls) Syscall(p *Process, num int, args []uint64) (uint64, error) {
	p.BlockUntil(h.c.Clock().Now() + h.dur)
	return 0, nil
}

// TestBlockingFreesCPU: while one process sleeps in a syscall, the
// other runs; the sleeper resumes after its wakeup time with the CPU
// time billed to the process that actually ran.
func TestBlockingFreesCPU(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	f.r.SetSyscallHandler(&blockingSyscalls{c: f.r.CPU(), dur: 100 * sim.Microsecond})
	var wokeAt, workerDone sim.Time
	sleeper := f.r.Spawn("sleeper", f.space(t, 1, ramPage), func(ctx *Context) error {
		if _, err := ctx.Syscall(0); err != nil {
			return err
		}
		wokeAt = f.clock.Now()
		return nil
	})
	worker := f.r.Spawn("worker", f.space(t, 2, ramPage+pageSize), func(ctx *Context) error {
		for i := 0; i < 20; i++ {
			ctx.Spin(100)
		}
		workerDone = f.clock.Now()
		return nil
	})
	if err := f.r.Run(NewRoundRobin(1), 10_000); err != nil {
		t.Fatal(err)
	}
	if sleeper.Err() != nil || worker.Err() != nil {
		t.Fatalf("sleeper=%v worker=%v", sleeper.Err(), worker.Err())
	}
	if wokeAt < 100*sim.Microsecond {
		t.Fatalf("sleeper woke at %v, before its wakeup time", wokeAt)
	}
	// The worker's 2000 cycles (~13µs) fit entirely inside the sleep.
	if workerDone >= wokeAt {
		t.Fatalf("worker finished at %v, after the sleeper woke (%v) — CPU not freed", workerDone, wokeAt)
	}
	if worker.CPUTime() == 0 {
		t.Fatal("worker billed no CPU time")
	}
}

// TestAllBlockedAdvancesIdleTime: with every process asleep, the
// scheduler advances the clock to the wakeup instead of deadlocking.
func TestAllBlockedAdvancesIdleTime(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	f.r.SetSyscallHandler(&blockingSyscalls{c: f.r.CPU(), dur: 250 * sim.Microsecond})
	p := f.r.Spawn("solo", f.space(t, 1, ramPage), func(ctx *Context) error {
		_, err := ctx.Syscall(0)
		return err
	})
	if err := f.r.Run(NewRoundRobin(1), 1000); err != nil {
		t.Fatal(err)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if f.clock.Now() < 250*sim.Microsecond {
		t.Fatalf("clock at %v; idle advance missing", f.clock.Now())
	}
}

// TestEventsFireDuringIdleAdvance: due events run while the scheduler
// idles toward a wakeup.
func TestEventsFireDuringIdleAdvance(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	f.r.SetSyscallHandler(&blockingSyscalls{c: f.r.CPU(), dur: 300 * sim.Microsecond})
	fired := false
	f.r.CPU().Events().Schedule(150*sim.Microsecond, func(sim.Time) { fired = true })
	f.r.Spawn("solo", f.space(t, 1, ramPage), func(ctx *Context) error {
		_, err := ctx.Syscall(0)
		return err
	})
	if err := f.r.Run(NewRoundRobin(1), 1000); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event due during idle advance never fired")
	}
}

// TestEventBlockAndWake: a process blocked with sim.Never wakes when an
// event calls Wake — the interrupt-driven path.
func TestEventBlockAndWake(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	handler := &neverBlockSyscalls{}
	f.r.SetSyscallHandler(handler)
	var wokeAt sim.Time
	p := f.r.Spawn("waiter", f.space(t, 1, ramPage), func(ctx *Context) error {
		if _, err := ctx.Syscall(0); err != nil {
			return err
		}
		wokeAt = f.clock.Now()
		return nil
	})
	// The "device interrupt": an event at 80µs wakes the process with a
	// 5µs dispatch overhead.
	f.r.CPU().Events().Schedule(80*sim.Microsecond, func(now sim.Time) {
		p.Wake(now + 5*sim.Microsecond)
	})
	if err := f.r.Run(NewRoundRobin(1), 1000); err != nil {
		t.Fatal(err)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	if wokeAt < 85*sim.Microsecond {
		t.Fatalf("woke at %v, want >= 85µs", wokeAt)
	}
	// Waking an unblocked process is a no-op.
	p2 := f.r.Spawn("done-soon", f.space(t, 2, ramPage+pageSize), func(ctx *Context) error {
		ctx.Spin(1)
		return nil
	})
	if err := f.r.Run(NewRoundRobin(1), 100); err != nil {
		t.Fatal(err)
	}
	p2.Wake(0)
}

type neverBlockSyscalls struct{}

func (neverBlockSyscalls) Syscall(p *Process, num int, args []uint64) (uint64, error) {
	p.BlockUntil(sim.Never)
	return 0, nil
}

// TestDeadlockDetected: everyone blocked forever, nothing pending — the
// scheduler reports ErrDeadlock instead of hanging.
func TestDeadlockDetected(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	f.r.SetSyscallHandler(&neverBlockSyscalls{})
	f.r.Spawn("stuck", f.space(t, 1, ramPage), func(ctx *Context) error {
		_, err := ctx.Syscall(0)
		return err
	})
	err := f.r.Run(NewRoundRobin(1), 1000)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
	f.r.Shutdown()
}

// TestStepBlockedPanics: manual stepping refuses blocked processes.
func TestStepBlockedPanics(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	f.r.SetSyscallHandler(&blockingSyscalls{c: f.r.CPU(), dur: sim.Millisecond})
	p := f.r.Spawn("solo", f.space(t, 1, ramPage), func(ctx *Context) error {
		_, err := ctx.Syscall(0)
		return err
	})
	f.r.Step(p) // the syscall slot: handler blocks the process
	defer func() {
		if recover() == nil {
			t.Fatal("Step on blocked process did not panic")
		}
		f.r.Shutdown()
	}()
	f.r.Step(p)
}

func TestCPUTimeAccounting(t *testing.T) {
	f := newFixture(t, RunnerConfig{SwitchCycles: 600})
	heavy := f.r.Spawn("heavy", f.space(t, 1, ramPage), func(ctx *Context) error {
		for i := 0; i < 10; i++ {
			ctx.Spin(1000)
		}
		return nil
	})
	light := f.r.Spawn("light", f.space(t, 2, ramPage+pageSize), func(ctx *Context) error {
		ctx.Spin(10)
		return nil
	})
	if err := f.r.Run(NewRoundRobin(2), 1000); err != nil {
		t.Fatal(err)
	}
	if heavy.CPUTime() <= light.CPUTime() {
		t.Fatalf("heavy %v <= light %v", heavy.CPUTime(), light.CPUTime())
	}
	// Total per-process time is bounded by wall time (switch costs are
	// not billed to processes).
	if heavy.CPUTime()+light.CPUTime() > f.clock.Now() {
		t.Fatalf("billed %v+%v exceeds wall %v",
			heavy.CPUTime(), light.CPUTime(), f.clock.Now())
	}
	if heavy.CPUTime() < (150 * sim.MHz).Cycles(10_000) {
		t.Fatalf("heavy billed only %v", heavy.CPUTime())
	}
}

func TestExitHookRuns(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	var exited []string
	f.r.AddExitHook(func(p *Process) { exited = append(exited, p.Name()) })
	f.r.Spawn("a", f.space(t, 1, ramPage), func(ctx *Context) error {
		ctx.Spin(1)
		return nil
	})
	f.r.Spawn("b", f.space(t, 2, ramPage+pageSize), func(ctx *Context) error {
		ctx.Spin(1)
		ctx.Spin(1)
		return nil
	})
	if err := f.r.Run(NewRoundRobin(1), 100); err != nil {
		t.Fatal(err)
	}
	if len(exited) != 2 || exited[0] != "a" || exited[1] != "b" {
		t.Fatalf("exit hooks ran as %v", exited)
	}
}

func TestFaultingGuestSurfacesError(t *testing.T) {
	f := newFixture(t, RunnerConfig{})
	p := f.r.Spawn("A", f.space(t, 1, ramPage), func(ctx *Context) error {
		_, err := ctx.Load(0xdead0000, phys.Size64) // unmapped
		return err
	})
	if err := f.r.Run(NewRoundRobin(1), 100); err != nil {
		t.Fatal(err)
	}
	var fault *vm.Fault
	if !errors.As(p.Err(), &fault) {
		t.Fatalf("process error = %v", p.Err())
	}
}
