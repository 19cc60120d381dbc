package proc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"uldma/internal/cpu"
	"uldma/internal/phys"
	"uldma/internal/sim"
)

// referenceRun is Run as it was before the running guest made its own
// next-slot decision: every slot goes through StepPolicy, one coroutine
// yield per slot, with advanceIdle when nothing is runnable. Run must
// match it slot for slot.
func referenceRun(r *Runner, policy Policy, maxSlots uint64) error {
	for granted := uint64(0); ; {
		runnable := r.runnable()
		if len(runnable) == 0 {
			progressed, err := r.advanceIdle()
			if err != nil {
				return err
			}
			if !progressed {
				return nil
			}
			continue
		}
		if granted >= maxSlots {
			return fmt.Errorf("%w (%d slots, %d processes unfinished)",
				ErrSlotBudget, maxSlots, len(runnable))
		}
		granted++
		r.StepPolicy(policy)
	}
}

// parityKernel blocks the caller on syscall 0 for a fixed time, and on
// syscall 1 until an event, 30µs later, wakes it.
type parityKernel struct{ c *cpu.CPU }

func (k *parityKernel) Syscall(p *Process, num int, _ []uint64) (uint64, error) {
	now := k.c.Clock().Now()
	switch num {
	case 0:
		p.BlockUntil(now + 20*sim.Microsecond)
	case 1:
		p.BlockUntil(sim.Never)
		k.c.Events().ScheduleFunc(now+30*sim.Microsecond, func(at sim.Time) { p.Wake(at + sim.Microsecond) })
	}
	return 0, nil
}

// slotRec is one slot as observed: the process and the clock.
type slotRec struct {
	pid PID
	at  sim.Time
}

// parityOutcome is everything a run leaves behind that Run and the
// reference must agree on.
type parityOutcome struct {
	err      string
	slots    []slotRec // one per instruction, recorded by the guest after it
	switches []slotRec // one per context switch: the incoming process
	clock    sim.Time
	ctr      Counters
	instrs   []uint64
	cpuTimes []sim.Time
	// midBlocks counts the interrupts that blocked the spinner while it
	// held the CPU.
	midBlocks int
}

// runParityWorld builds a four-process world — a spinner, a timed
// sleeper, an event-woken waiter and a short job — runs it with run
// under a fresh policy and budget, and records the outcome. After its
// 30th instruction the spinner arms an interrupt that fires inside its
// next instruction and blocks it for 10µs: the running guest turns
// unrunnable in the middle of its quantum, with no syscall or yield.
func runParityWorld(t *testing.T, policy Policy, budget uint64, run func(*Runner, Policy, uint64) error) parityOutcome {
	t.Helper()
	f := newFixture(t, RunnerConfig{SwitchCycles: 600})
	defer f.r.Shutdown()
	f.r.SetSyscallHandler(&parityKernel{c: f.r.cpu})
	var out parityOutcome
	f.r.AddSwitchHook(func(_, to *Process) { out.switches = append(out.switches, slotRec{to.PID(), f.clock.Now()}) })
	body := func(kind, n int) Body {
		return func(ctx *Context) error {
			for i := 0; i < n; i++ {
				switch {
				case kind == 1 && (i == 10 || i == n-2):
					if _, err := ctx.Syscall(0); err != nil {
						return err
					}
				case kind == 2 && i == 15:
					if _, err := ctx.Syscall(1); err != nil {
						return err
					}
				case i%4 == 0:
					if err := ctx.Store(0x10000, phys.Size64, uint64(i)); err != nil {
						return err
					}
				default:
					ctx.Spin(int64(1 + (i*7+kind*13)%50))
				}
				out.slots = append(out.slots, slotRec{ctx.Process().PID(), f.clock.Now()})
				if kind == 0 && i == 30 {
					p := ctx.Process()
					f.r.cpu.Events().ScheduleFunc(f.clock.Now()+sim.Nanosecond, func(at sim.Time) {
						if f.r.current == p {
							out.midBlocks++
						}
						p.BlockUntil(at + 10*sim.Microsecond)
					})
				}
			}
			return nil
		}
	}
	for kind, n := range []int{60, 40, 40, 5} {
		f.r.Spawn(fmt.Sprint("p", kind), f.space(t, kind+1, ramPage+phys.Addr(kind)*pageSize), body(kind, n))
	}
	if err := run(f.r, policy, budget); err != nil {
		out.err = err.Error()
	}
	out.clock = f.clock.Now()
	out.ctr = f.r.Counters()
	for _, p := range f.r.Processes() {
		out.instrs = append(out.instrs, p.Instructions())
		out.cpuTimes = append(out.cpuTimes, p.CPUTime())
	}
	return out
}

// TestRunMatchesReferenceLoop: Run, with the guest deciding its own next
// slot, produces exactly what the one-yield-per-slot loop produces,
// under every policy: the same slot and switch sequences, clock,
// counters and per-process instructions and CPU time, and the same
// ErrSlotBudget at the same slot when the budget runs out. Two cases
// pin the conditions of RoundRobin's in-place keep: the interrupt that
// blocks the running spinner mid-quantum (RoundRobin(1<<20) keeps the
// spinner until then, so it must see the block), and budgets of 5 and
// 23 slots, which end inside the first and third guests' quanta under
// RoundRobin(9) and inside the spinner's under RoundRobin(1<<20).
func TestRunMatchesReferenceLoop(t *testing.T) {
	policies := []struct {
		name string
		mk   func() Policy
	}{
		{"RoundRobin(1)", func() Policy { return NewRoundRobin(1) }},
		{"RoundRobin(9)", func() Policy { return NewRoundRobin(9) }},
		{"RoundRobin(1<<20)", func() Policy { return NewRoundRobin(1 << 20) }},
		{"Random(7)", func() Policy { return NewRandom(7) }},
		{"Random(42)", func() Policy { return NewRandom(42) }},
		{"Scripted", func() Policy { return NewScripted(1, 1, 1, 2, 4, 4, 3, 3, 3, 3, 2, 1, 4, 4, 4, 4, 4, 4, 2, 2, 3) }},
	}
	for _, pc := range policies {
		t.Run(pc.name, func(t *testing.T) {
			want := runParityWorld(t, pc.mk(), 1<<20, referenceRun)
			got := runParityWorld(t, pc.mk(), 1<<20, (*Runner).Run)
			if want.err != "" {
				t.Fatalf("reference run failed: %s", want.err)
			}
			compareOutcomes(t, "full run", got, want)
			if pc.name == "RoundRobin(1<<20)" && want.midBlocks == 0 {
				t.Fatal("the interrupt never blocked the running spinner")
			}
			total := want.ctr.Slots.Value()
			for _, budget := range []uint64{1, 5, 23, total / 3, total - 1} {
				want := runParityWorld(t, pc.mk(), budget, referenceRun)
				got := runParityWorld(t, pc.mk(), budget, (*Runner).Run)
				if !strings.HasPrefix(want.err, ErrSlotBudget.Error()) {
					t.Fatalf("budget %d of %d: reference run ended with %q, want the slot budget", budget, total, want.err)
				}
				compareOutcomes(t, fmt.Sprintf("budget %d of %d", budget, total), got, want)
			}
		})
	}
}

func compareOutcomes(t *testing.T, what string, got, want parityOutcome) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: err %q, reference %q", what, got.err, want.err)
	}
	if !reflect.DeepEqual(got.slots, want.slots) {
		t.Fatalf("%s: slot sequence diverges at %d (%d vs %d slots)", what, firstDiff(got.slots, want.slots), len(got.slots), len(want.slots))
	}
	if !reflect.DeepEqual(got.switches, want.switches) {
		t.Fatalf("%s: switch sequence diverges at %d (%d vs %d switches)", what, firstDiff(got.switches, want.switches), len(got.switches), len(want.switches))
	}
	if got.midBlocks != want.midBlocks {
		t.Fatalf("%s: %d mid-quantum blocks, reference %d", what, got.midBlocks, want.midBlocks)
	}
	if got.clock != want.clock || got.ctr != want.ctr {
		t.Fatalf("%s: clock %v counters %+v, reference %v %+v", what, got.clock, got.ctr, want.clock, want.ctr)
	}
	if !reflect.DeepEqual(got.instrs, want.instrs) || !reflect.DeepEqual(got.cpuTimes, want.cpuTimes) {
		t.Fatalf("%s: instructions %v CPU %v, reference %v %v", what, got.instrs, got.cpuTimes, want.instrs, want.cpuTimes)
	}
}

func firstDiff(a, b []slotRec) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
