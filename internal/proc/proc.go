//go:build go1.23

// Package proc models preemptive multiprogramming — the source of every
// race the paper is about — as deterministic coroutines.
//
// Guest code is ordinary Go (a Body function) issuing simulated
// instructions through a Context. Every instruction boundary is a
// scheduling decision: the Runner grants one instruction slot at a time,
// and a pluggable Policy decides which process gets it. Each process
// body runs as a runtime coroutine (iter.Pull): a grant resumes it, and
// it yields back when a slot goes to someone else. Control passes
// directly between the scheduler and exactly one guest, so execution is
// fully deterministic; a recorded schedule replays bit-for-bit.
//
// Where the per-slot decision runs depends on who drives. Under Run,
// the running guest makes it itself at its next instruction boundary
// (Context.begin): the same runnable set, slot-budget check and
// Policy.Next that Run would make, except that a RoundRobin policy
// keeping the guest within its quantum is recognised without building
// the runnable set. When the policy picks the guest
// again, the slot is re-granted in place without a coroutine switch;
// when it picks another process, the guest records the pick and yields,
// and Run dispatches it without consulting the policy twice. Step and
// StepPolicy keep one yield per slot, so cluster schedulers and
// hand-built interleavings drive the scheduler exactly as before.
//
// Three policies cover the experiments:
//
//   - RoundRobin: a quantum scheduler, for throughput-style runs;
//   - Random: seeded random preemption, for the property tests that
//     hunt for argument-mixing interleavings;
//   - Scripted: an explicit PID-per-slot schedule, used to force the
//     exact adversarial interleavings of Figures 5, 6 and 8.
//
// Syscalls and PAL calls occupy a single slot and run to completion
// inside it — that is precisely the "executes uninterrupted" property
// the kernel path and the PAL-code scheme (§2.7) rely on.
//
// The file holding the coroutine handoff carries a go1.23 build
// constraint (iter.Pull), while go.mod stays at go 1.22: building the
// module needs a toolchain of at least Go 1.23.
package proc

import (
	"errors"
	"fmt"
	"iter"

	"uldma/internal/cpu"
	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// PID identifies a process.
type PID int

// State is a process lifecycle state.
type State uint8

// Process states.
const (
	Ready State = iota
	Done
)

// Body is the guest program: it runs as a coroutine and issues
// simulated instructions through ctx. Returning ends the process; a
// returned error is recorded as the process's exit status.
type Body func(ctx *Context) error

// Process is one simulated process.
type Process struct {
	pid   PID
	name  string
	as    *vm.AddressSpace
	body  Body // until the first slot creates the coroutine
	state State
	err   error

	next    func() (struct{}, bool) // runs the guest for one slot; false once its body returned
	stop    func()                  // unwinds a suspended guest (Shutdown)
	fresh   bool                    // slot granted but no instruction consumed yet (preamble)
	instrs  uint64
	cpuTime sim.Time // simulated time consumed in this process's slots

	// blockedUntil deschedules the process until the given simulated
	// time (kernel sleep on an event, e.g. a DMA-completion interrupt).
	blockedUntil sim.Time
}

// BlockUntil marks the process not-runnable until simulated time t.
// Kernel code calls it from inside a syscall (the classic "sleep until
// the device interrupt"); the scheduler skips the process and advances
// idle time if nothing else is runnable. Pass sim.Never to sleep until
// an explicit Wake (event-based blocking); the scheduler then relies on
// pending events to make progress.
func (p *Process) BlockUntil(t sim.Time) { p.blockedUntil = t }

// Wake clears an event-based block no earlier than time t (the caller —
// an interrupt-delivery path — includes its dispatch overhead in t).
// Waking an unblocked process is a no-op.
func (p *Process) Wake(t sim.Time) {
	if p.blockedUntil > t {
		p.blockedUntil = t
	}
}

// PID returns the process id.
func (p *Process) PID() PID { return p.pid }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// AddressSpace returns the process's page table.
func (p *Process) AddressSpace() *vm.AddressSpace { return p.as }

// State returns the lifecycle state.
func (p *Process) State() State { return p.state }

// Err returns the exit status (nil if still running or exited cleanly).
func (p *Process) Err() error { return p.err }

// Instructions returns how many instruction slots the process consumed.
func (p *Process) Instructions() uint64 { return p.instrs }

// CPUTime returns the simulated time consumed while this process held
// the CPU (scheduler accounting; context-switch costs are not billed to
// either side).
func (p *Process) CPUTime() sim.Time { return p.cpuTime }

// SwitchHook is called on every context switch. The SHRIMP-2 and FLASH
// comparators are implemented as hooks — they are exactly the kernel
// modifications the paper's own methods avoid needing.
type SwitchHook func(from, to *Process)

// SyscallHandler dispatches a trap. It runs in kernel mode within the
// calling process's slot, uninterrupted.
type SyscallHandler interface {
	Syscall(p *Process, num int, args []uint64) (uint64, error)
}

// PALFunc is an installed PAL routine: it executes uninterrupted in PAL
// mode within the caller's slot (§2.7). Only the kernel (super-user)
// installs PAL functions; any process may then invoke them.
type PALFunc func(p *Process, args []uint64) (uint64, error)

// Counters counts scheduler activity: the runner's live obs cells,
// registered with the machine's registry at construction and captured
// by value in snapshots so scheduler accounting rewinds with the world.
type Counters struct {
	Slots      obs.Counter // instruction slots granted
	Switches   obs.Counter // context switches performed
	SwitchTime obs.Gauge   // simulated picoseconds spent switching
}

// Runner owns the processes of one machine and schedules them onto its
// CPU.
type Runner struct {
	cpu         *cpu.CPU
	switchCost  int64 // CPU cycles per context switch
	palCost     int64 // CPU cycles of CALL_PAL dispatch overhead
	flushOnSwch bool  // flush TLB at switch (non-ASN configurations)

	hooks     []SwitchHook
	exitHooks []ExitHook
	syscalls  SyscallHandler
	pal       map[string]PALFunc

	procs   []*Process
	nextPID PID
	current *Process
	ctr     Counters
	scratch []*Process // reused by runnable(); policies must not retain it

	// slotStart is the clock at the start of the current slot; the
	// slot's end bills the difference to the running process's cpuTime.
	slotStart sim.Time

	// Run's own state, nil/zero outside Run and never snapshot state:
	// the policy and slot budget the running guest consults in
	// regrant, the slots granted so far, and the guest's pick of
	// another process, which Run dispatches without calling Next again.
	policy   Policy
	maxSlots uint64
	granted  uint64
	pending  *Process

	// tr is the obs trace spine (nil = tracing disabled, the zero-cost
	// fast path); node is the cluster node id stamped on events.
	tr   *obs.Trace
	node int32
}

// RunnerConfig sets scheduling costs.
type RunnerConfig struct {
	// SwitchCycles is the CPU cost of a context switch (register save/
	// restore, scheduler work). The Alpha preset uses ~600 cycles.
	SwitchCycles int64
	// PALCallCycles is the CALL_PAL entry/exit overhead.
	PALCallCycles int64
	// FlushTLBOnSwitch models hardware without address-space numbers.
	FlushTLBOnSwitch bool
}

// NewRunner creates an empty runner on c.
func NewRunner(c *cpu.CPU, cfg RunnerConfig) *Runner {
	return &Runner{
		cpu:         c,
		switchCost:  cfg.SwitchCycles,
		palCost:     cfg.PALCallCycles,
		flushOnSwch: cfg.FlushTLBOnSwitch,
		pal:         make(map[string]PALFunc),
		nextPID:     1,
	}
}

// Counters returns the scheduler counters.
func (r *Runner) Counters() Counters { return r.ctr }

// RegisterMetrics publishes the scheduler's counters in a registry.
func (r *Runner) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("proc.slots", &r.ctr.Slots)
	reg.RegisterCounter("proc.switches", &r.ctr.Switches)
	reg.RegisterGauge("proc.switch_time_ps", &r.ctr.SwitchTime)
}

// SetTracer attaches (or, with nil, detaches) the obs trace spine.
// Context switches are emitted as CatSched instants stamped with node.
func (r *Runner) SetTracer(t *obs.Trace, node int32) {
	r.tr = t
	r.node = node
}

// AddSwitchHook appends a context-switch hook. In this model, adding a
// hook IS "modifying the operating system kernel" — the paper's methods
// never call this.
func (r *Runner) AddSwitchHook(h SwitchHook) { r.hooks = append(r.hooks, h) }

// ExitHook runs when a process finishes — ordinary process-teardown
// kernel work (resource reclamation), NOT an edit to the context-switch
// path.
type ExitHook func(p *Process)

// AddExitHook appends a process-exit hook.
func (r *Runner) AddExitHook(h ExitHook) { r.exitHooks = append(r.exitHooks, h) }

// SetSyscallHandler installs the kernel's trap dispatcher.
func (r *Runner) SetSyscallHandler(h SyscallHandler) { r.syscalls = h }

// InstallPAL registers a PAL routine under name. Conceptually a
// super-user operation performed once at boot.
func (r *Runner) InstallPAL(name string, fn PALFunc) { r.pal[name] = fn }

// Processes returns all spawned processes.
func (r *Runner) Processes() []*Process { return r.procs }

// Spawn creates a process executing body in address space as. Its
// coroutine is created at its first slot, so nothing of body — not even
// the Go code before its first instruction — runs before then, and a
// process that is never granted a slot costs no goroutine.
func (r *Runner) Spawn(name string, as *vm.AddressSpace, body Body) *Process {
	p := &Process{pid: r.nextPID, name: name, as: as, body: body}
	r.nextPID++
	r.procs = append(r.procs, p)
	return p
}

// start creates p's coroutine, suspended before its body.
func (r *Runner) start(p *Process) {
	body := p.body
	p.body = nil
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if e := recover(); e != nil {
				if _, ok := e.(killed); ok {
					return // Shutdown tore us down
				}
				// A guest panic resumes on the scheduler's caller
				// (out of next); the dead process never runs again.
				p.state = Done
				panic(e)
			}
		}()
		// The first instruction consumes the grant that started the
		// coroutine (p.fresh), keeping slot accounting
		// one-grant-per-instruction.
		p.fresh = true
		err := body(&Context{p: p, r: r, yield: yield})
		// Release the slot of the last instruction (the body kept it
		// while running its trailing Go code); the next grant ends the
		// coroutine, and that grant completes the process.
		if yield(struct{}{}) {
			p.err = err
		}
	})
}

// killed is the panic payload used to unwind guest coroutines at
// Shutdown.
type killed struct{}

// ErrSlotBudget is returned by Run when the slot budget is exhausted
// before every process finished — usually a guest livelock.
var ErrSlotBudget = errors.New("proc: slot budget exhausted before all processes finished")

// ErrDeadlock is returned by Run when every live process is blocked
// forever (event-based blocks) and no event is pending to wake any of
// them — a guest or kernel bug.
var ErrDeadlock = errors.New("proc: deadlock — all processes blocked forever with no pending events")

// Run schedules until every process is Done or maxSlots instruction
// slots have been granted (a safety net against guest livelock; pass a
// generous number). It returns ErrSlotBudget if the budget ran out.
// When every live process is blocked, the scheduler advances idle time
// to the earliest wakeup (firing due events along the way), like an
// idle loop waiting for the next interrupt. While Run drives, the
// running guest makes each next-slot decision itself (see regrant).
func (r *Runner) Run(policy Policy, maxSlots uint64) error {
	r.policy, r.maxSlots, r.granted = policy, maxSlots, 0
	defer r.endRun()
	for {
		if p := r.pending; p != nil {
			r.pending = nil
			r.dispatch(p)
			continue
		}
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
		if r.granted >= maxSlots {
			return fmt.Errorf("%w (%d slots, %d processes unfinished)",
				ErrSlotBudget, maxSlots, len(runnable))
		}
		r.granted++
		r.dispatch(pick(policy, runnable, r.current))
	}
}

// endRun clears Run's state, also when a guest panic unwinds Run.
func (r *Runner) endRun() {
	r.policy, r.maxSlots, r.granted, r.pending = nil, 0, 0, nil
}

// regrant makes the next slot's scheduling decision on the running
// guest p's own coroutine, exactly as Run's loop would: the runnable
// set, the slot-budget check, then Policy.Next. When a RoundRobin
// policy would keep p (RoundRobin.keepRoom), it skips the runnable set
// and the scan and charges that pick directly, so a kept slot costs
// the same however many processes the runner holds. It reports whether the
// policy picked p again, in which case the finished slot is closed and
// the new one opened in place, with no yield. Otherwise p must yield:
// with a pick of another process recorded in pending, or with no pick
// at all when Run has to idle or report the exhausted budget. Outside
// Run it always returns false, so Step and StepPolicy keep one yield
// per slot.
func (r *Runner) regrant(p *Process) bool {
	if r.policy == nil {
		return false
	}
	if rr, ok := r.policy.(*RoundRobin); ok && rr.keepRoom(r, p) > 0 {
		// The pick Next would make, without building the runnable set:
		// the running guest keeps the CPU for one more slot of its
		// quantum.
		r.granted++
		rr.used++
		r.reslot(p)
		return true
	}
	runnable := r.runnable()
	if len(runnable) == 0 || r.granted >= r.maxSlots {
		return false
	}
	r.granted++
	if next := pick(r.policy, runnable, r.current); next != p {
		r.pending = next
		return false
	}
	r.reslot(p)
	return true
}

// reslot closes the running guest p's finished slot and opens the next
// one in place.
func (r *Runner) reslot(p *Process) {
	now := r.cpu.Clock().Now()
	p.cpuTime += now - r.slotStart
	r.ctr.Slots.Inc()
	r.slotStart = now
}

// pick asks the policy for the next slot's process, falling back to
// the first runnable one when the policy names none or a Done process.
func pick(policy Policy, runnable []*Process, current *Process) *Process {
	p := policy.Next(runnable, current)
	if p == nil || p.state == Done {
		p = runnable[0]
	}
	return p
}

// advanceIdle moves the clock toward the next thing that can make a
// blocked process runnable: the earliest timed wakeup or the next
// pending event (whose effect may Wake an event-blocked process). It
// returns false when nothing is blocked (everything is Done), and
// ErrDeadlock when processes are blocked forever with no event pending.
func (r *Runner) advanceIdle() (bool, error) {
	wake, ok := r.EarliestWakeup()
	if !ok {
		return false, nil
	}
	clock := r.cpu.Clock()
	ev := r.cpu.Events()
	next := wake
	if ev != nil && ev.NextAt() < next {
		next = ev.NextAt()
	}
	if next == sim.Never {
		return false, ErrDeadlock
	}
	clock.AdvanceTo(next)
	if ev != nil {
		ev.RunUntil(clock.Now())
	}
	return true, nil
}

// EarliestWakeup returns the soonest wakeup time among blocked live
// processes (ok is false when none are blocked). Cluster schedulers use
// it to advance a shared clock when every node idles.
func (r *Runner) EarliestWakeup() (sim.Time, bool) {
	now := r.cpu.Clock().Now()
	earliest := sim.Never
	found := false
	for _, p := range r.procs {
		if p.state != Done && p.blockedUntil > now {
			if p.blockedUntil < earliest {
				earliest = p.blockedUntil
			}
			found = true
		}
	}
	return earliest, found
}

// StepPolicy grants one slot to whichever process the policy picks.
// It returns false (and does nothing) when no process is runnable.
// Cluster schedulers use it to interleave several machines' runners on
// a shared clock.
func (r *Runner) StepPolicy(policy Policy) bool {
	runnable := r.runnable()
	if len(runnable) == 0 {
		return false
	}
	r.dispatch(pick(policy, runnable, r.current))
	return true
}

// Step grants exactly one slot to process p (which must not be Done or
// blocked). Attack harnesses use it to drive hand-built interleavings.
func (r *Runner) Step(p *Process) {
	if p.state == Done {
		panic(fmt.Sprintf("proc: Step(%s): process already done", p.name))
	}
	if p.blockedUntil > r.cpu.Clock().Now() {
		panic(fmt.Sprintf("proc: Step(%s): process blocked until %v", p.name, p.blockedUntil))
	}
	r.dispatch(p)
}

func (r *Runner) dispatch(p *Process) {
	if r.current != p {
		r.contextSwitch(r.current, p)
	}
	r.ctr.Slots.Inc()
	r.slotStart = r.cpu.Clock().Now()
	if p.next == nil {
		r.start(p)
	}
	_, running := p.next()
	p.cpuTime += r.cpu.Clock().Now() - r.slotStart
	if !running {
		p.state = Done
		p.next, p.stop = nil, nil
		for _, h := range r.exitHooks {
			h(p)
		}
	}
}

// runnable returns the currently dispatchable processes. The returned
// slice is the runner's reusable scratch buffer — valid only until the
// next runnable() call (this is the scheduler's per-slot hot path; a
// fresh slice per slot dominated the cluster loop's allocations).
func (r *Runner) runnable() []*Process {
	now := r.cpu.Clock().Now()
	out := r.scratch[:0]
	for _, p := range r.procs {
		if p.state != Done && p.blockedUntil <= now {
			out = append(out, p)
		}
	}
	r.scratch = out
	return out
}

// contextSwitch charges the switch cost and runs the hook chain. The
// write buffer drains first: real kernel entry paths are full of
// barriers, so posted user stores always reach their device before any
// switch hook (SHRIMP-2's abort would otherwise miss a half-initiation
// still sitting in the buffer).
func (r *Runner) contextSwitch(from, to *Process) {
	r.ctr.Switches.Inc()
	before := r.cpu.Clock().Now()
	if err := r.cpu.WriteBuffer().Drain(); err != nil {
		// A store that faults at drain time would machine-check; in the
		// model we surface it by panicking, since it means a test wired
		// an unmappable address.
		panic(fmt.Sprintf("proc: write-buffer drain at context switch: %v", err))
	}
	r.cpu.Spin(r.switchCost)
	if r.flushOnSwch {
		r.cpu.TLB().Flush()
	}
	for _, h := range r.hooks {
		h(from, to)
	}
	r.ctr.SwitchTime.Add(int64(r.cpu.Clock().Now() - before))
	if r.tr != nil {
		fromPID, toPID := PID(0), to.pid
		if from != nil {
			fromPID = from.pid
		}
		r.tr.Instant(r.cpu.Clock().Now(), obs.CatSched, "ctxswitch", r.node, int32(toPID),
			uint64(fromPID), uint64(toPID), 0)
	}
	r.current = to
}

// Shutdown tears down any still-suspended guest coroutines. Call it
// when abandoning a run (e.g. after ErrSlotBudget); it is a no-op for
// processes that finished.
func (r *Runner) Shutdown() {
	for _, p := range r.procs {
		if p.state != Done {
			p.state = Done
			p.body = nil // a never-started body may capture its whole world
			if p.stop != nil {
				p.stop()
			}
		}
	}
}

// --- guest-visible context ---

// Context is the handle guest code uses to execute instructions. It
// implements isa.Executor. Every method is one instruction slot (one
// preemption point); Syscall and PALCall run their entire privileged
// body inside that single slot.
//
// Slot discipline: a process takes its slot at the start of an
// instruction and keeps it until it reaches its NEXT instruction
// boundary (or its body returns), where it either takes the next slot
// in place (Runner.regrant) or yields back to the scheduler. The Go
// code a guest runs between two instructions therefore executes while
// the scheduler is suspended, so guest logic, scheduler, and other
// guests are strictly serialized — the simulation is deterministic and
// race-free by construction.
type Context struct {
	p     *Process
	r     *Runner
	yield func(struct{}) bool
}

// Process returns the process this context belongs to.
func (c *Context) Process() *Process { return c.p }

// begin takes the slot for one instruction: a fresh grant (covering
// the body's preamble) is consumed directly; a slot the scheduler
// re-grants to this process is taken in place (Runner.regrant);
// otherwise the previous slot is handed back and the next grant
// awaited.
func (c *Context) begin() {
	if c.p.fresh {
		c.p.fresh = false
	} else if !c.r.regrant(c.p) {
		c.handOff()
	}
	c.p.instrs++
}

// handOff yields the slot back to the scheduler and resumes at the
// process's next grant. Panics with killed on shutdown.
func (c *Context) handOff() {
	if !c.yield(struct{}{}) {
		panic(killed{})
	}
}

// SkipRoom reports how many more slots the guest can take in place
// (Runner.regrant) with every scheduling decision as it is now: before
// the slot budget runs out or its round-robin quantum would turn over.
// ok is false when slots cannot be charged in bulk: outside Run, under
// any policy but RoundRobin, or with another process live.
func (c *Context) SkipRoom() (slots uint64, ok bool) {
	rr, isRR := c.r.policy.(*RoundRobin)
	if !isRR || !rr.holds(c.r, c.p) {
		return 0, false
	}
	for _, p := range c.r.procs {
		if p != c.p && p.state != Done {
			return 0, false
		}
	}
	return rr.keepRoom(c.r, c.p), true
}

// SkipSlots charges n in-place slots lasting d in all, within SkipRoom,
// as n regrant calls would: the slot budget, the round-robin position,
// the instruction count and the guest's CPU time. The proc.slots cell
// is left to the caller's registry charge (obs.Registry.Extrapolate).
func (c *Context) SkipSlots(n uint64, d sim.Time) {
	c.r.granted += n
	c.r.policy.(*RoundRobin).used += int(n)
	c.p.instrs += n
	c.p.cpuTime += d
	c.r.slotStart += d
}

// Load issues a user-mode load.
func (c *Context) Load(va vm.VAddr, size phys.AccessSize) (uint64, error) {
	c.begin()
	return c.r.cpu.Load(c.p.as, va, size)
}

// Store issues a user-mode store.
func (c *Context) Store(va vm.VAddr, size phys.AccessSize, val uint64) error {
	c.begin()
	return c.r.cpu.Store(c.p.as, va, size, val)
}

// MB issues a memory barrier.
func (c *Context) MB() error {
	c.begin()
	return c.r.cpu.MB()
}

// Swap issues an atomic load-and-store (one slot; atomic by construction).
func (c *Context) Swap(va vm.VAddr, size phys.AccessSize, val uint64) (uint64, error) {
	c.begin()
	return c.r.cpu.Swap(c.p.as, va, size, val)
}

// Spin consumes one slot of pure computation (n CPU cycles).
func (c *Context) Spin(n int64) {
	c.begin()
	c.r.cpu.Spin(n)
}

// Syscall traps into the kernel. The handler runs in kernel mode and
// cannot be preempted — the whole trap occupies one slot, like the real
// uninterruptible kernel path of Figure 1.
func (c *Context) Syscall(num int, args ...uint64) (uint64, error) {
	c.begin()
	if c.r.syscalls == nil {
		return 0, errors.New("proc: no syscall handler installed")
	}
	prev := c.r.cpu.Mode()
	c.r.cpu.SetMode(cpu.Kernel)
	v, err := c.r.syscalls.Syscall(c.p, num, args)
	c.r.cpu.SetMode(prev)
	if bu := c.p.blockedUntil; bu > c.r.cpu.Clock().Now() {
		// The handler put us to sleep (e.g. waiting for a completion
		// interrupt): give the CPU back; the scheduler re-grants at or
		// after the wakeup time, and that grant also covers the code
		// following the syscall (a fresh grant).
		c.handOff()
		c.p.fresh = true
		c.p.blockedUntil = 0
	}
	return v, err
}

// PALCall invokes an installed PAL routine: unprivileged entry,
// uninterrupted execution (§2.7). The dispatch overhead is charged, the
// routine runs in PAL mode, and the whole call occupies one slot.
func (c *Context) PALCall(name string, args ...uint64) (uint64, error) {
	c.begin()
	fn, ok := c.r.pal[name]
	if !ok {
		return 0, fmt.Errorf("proc: PAL function %q not installed", name)
	}
	c.r.cpu.Spin(c.r.palCost)
	prev := c.r.cpu.Mode()
	c.r.cpu.SetMode(cpu.PAL)
	v, err := fn(c.p, args)
	c.r.cpu.SetMode(prev)
	return v, err
}
