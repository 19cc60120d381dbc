// Package cpu models the host processor: instruction issue, address
// translation through the TLB, the split between cached main-memory
// accesses and uncached device accesses (which go through the write
// buffer onto the I/O bus), and the privilege modes the paper's methods
// depend on (user, kernel, and the Alpha's PAL mode).
//
// The model is cost-accurate rather than functionally complete: there is
// no register file or decoder, because every experiment in the paper is
// a function of *which memory accesses a sequence performs and what each
// costs*, not of ALU behaviour. The machine preset calibrates the cost
// constants to the paper's DEC Alpha 3000/300.
package cpu

import (
	"fmt"

	"uldma/internal/bus"
	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// Mode is the processor privilege mode.
type Mode uint8

// Privilege modes.
const (
	// User is unprivileged execution: virtual addressing only,
	// preemptible at every instruction boundary.
	User Mode = iota
	// Kernel is privileged execution entered through a syscall trap:
	// physical addressing allowed, not preemptible (the paper's kernel
	// DMA path runs "with interrupts disabled").
	Kernel
	// PAL is the Alpha's PALcode mode: unprivileged entry via CALL_PAL
	// into kernel-installed routines that execute uninterrupted (§2.7).
	PAL
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case User:
		return "user"
	case Kernel:
		return "kernel"
	case PAL:
		return "pal"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Config holds the CPU cost model.
type Config struct {
	// Freq is the core clock (150 MHz for the Alpha 3000/300 preset).
	Freq sim.Hz
	// IssueCycles is the base cost of issuing any instruction.
	IssueCycles int64
	// CacheHitCycles is the additional cost of a cached main-memory
	// access (the model assumes warm caches for the hot sequences, as
	// the paper's measurement loop did).
	CacheHitCycles int64
	// TLBMissCycles is the cost of a hardware/PALcode page-table walk.
	TLBMissCycles int64
	// MBCycles is the core-side cost of a memory barrier, on top of the
	// bus time its drain consumes.
	MBCycles int64
	// TLBEntries sizes the TLB (32 for the 21064 data TLB).
	TLBEntries int
}

// Counters counts CPU activity for experiment reports: the CPU's live
// obs cells, copied by value into snapshots so they rewind with the
// world.
type Counters struct {
	Instructions  obs.Counter
	Loads         obs.Counter
	Stores        obs.Counter
	RMWs          obs.Counter
	Barriers      obs.Counter
	DeviceAccess  obs.Counter // uncached accesses routed to the bus
	MemoryAccess  obs.Counter // cached accesses to main memory
	ComputeCycles obs.Gauge   // cycles consumed via Spin (modelled software work)
}

// PrivilegeError is returned when user mode attempts a privileged
// operation (e.g. a physical-address access).
type PrivilegeError struct {
	Op   string
	Mode Mode
}

func (e *PrivilegeError) Error() string {
	return fmt.Sprintf("cpu: %s requires kernel or PAL mode, executed in %s mode", e.Op, e.Mode)
}

// CPU is one processor core wired to a memory system. It owns the TLB
// and the write buffer (both are per-processor structures) and shares
// the clock, event queue, physical memory and bus with the rest of the
// machine.
type CPU struct {
	cfg    Config
	period sim.Time // one core cycle: cfg.Freq's Period, computed once
	clock  *sim.Clock
	events *sim.EventQueue
	mem    *phys.Memory
	bus    *bus.Bus
	wb     *bus.WriteBuffer
	tlb    *vm.TLB
	mode   Mode
	ctr    Counters
}

// New builds a CPU. wb must be a write buffer in front of b.
func New(cfg Config, clock *sim.Clock, events *sim.EventQueue, mem *phys.Memory, b *bus.Bus, wb *bus.WriteBuffer) *CPU {
	if cfg.Freq == 0 {
		panic("cpu: zero frequency")
	}
	if cfg.TLBEntries <= 0 {
		cfg.TLBEntries = 32
	}
	return &CPU{
		cfg:    cfg,
		period: cfg.Freq.Period(),
		clock:  clock,
		events: events,
		mem:    mem,
		bus:    b,
		wb:     wb,
		tlb:    vm.NewTLB(cfg.TLBEntries),
		mode:   User,
	}
}

// Config returns the cost model.
func (c *CPU) Config() Config { return c.cfg }

// Clock returns the machine clock the CPU advances.
func (c *CPU) Clock() *sim.Clock { return c.clock }

// Events returns the machine event queue the CPU pumps (nil in bare
// test rigs). The scheduler uses it to advance idle time when every
// process is blocked on an event.
func (c *CPU) Events() *sim.EventQueue { return c.events }

// Mode returns the current privilege mode.
func (c *CPU) Mode() Mode { return c.mode }

// SetMode changes the privilege mode. It is called by the kernel trap
// machinery and the PAL dispatcher, never by guest code directly.
func (c *CPU) SetMode(m Mode) { c.mode = m }

// Counters returns the activity counters.
func (c *CPU) Counters() Counters { return c.ctr }

// RegisterMetrics publishes the CPU's counters in a registry. The TLB
// registers its own (TLB.RegisterMetrics), as does the write buffer.
func (c *CPU) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("cpu.instructions", &c.ctr.Instructions)
	r.RegisterCounter("cpu.loads", &c.ctr.Loads)
	r.RegisterCounter("cpu.stores", &c.ctr.Stores)
	r.RegisterCounter("cpu.rmws", &c.ctr.RMWs)
	r.RegisterCounter("cpu.barriers", &c.ctr.Barriers)
	r.RegisterCounter("cpu.device_access", &c.ctr.DeviceAccess)
	r.RegisterCounter("cpu.memory_access", &c.ctr.MemoryAccess)
	r.RegisterGauge("cpu.compute_cycles", &c.ctr.ComputeCycles)
}

// TLB exposes the translation buffer (for flushes at context switch in
// non-ASN configurations, and for its counters).
func (c *CPU) TLB() *vm.TLB { return c.tlb }

// WriteBuffer exposes the posted-write buffer.
func (c *CPU) WriteBuffer() *bus.WriteBuffer { return c.wb }

// charge advances the clock by n core cycles and pumps due events
// (in-flight DMA transfers progress while the CPU computes).
func (c *CPU) charge(n int64) {
	if n > 0 {
		c.clock.Advance(sim.Time(n) * c.period)
	}
	c.pump()
}

func (c *CPU) pump() {
	if c.events != nil {
		c.events.RunUntil(c.clock.Now())
	}
}

// Spin consumes n core cycles of pure computation. The kernel model uses
// it for trap entry/exit, software translation, and scheduler work.
func (c *CPU) Spin(n int64) {
	c.ctr.ComputeCycles.Add(n)
	c.charge(n)
}

// translate resolves va through the TLB, charging the walk cost on a
// miss.
func (c *CPU) translate(as *vm.AddressSpace, va vm.VAddr, access vm.Access) (phys.Addr, error) {
	pa, hit, err := c.tlb.Translate(as, va, access)
	if !hit {
		c.charge(c.cfg.TLBMissCycles)
	}
	if err != nil {
		return 0, err
	}
	return pa, nil
}

// Load issues a load of size bytes at virtual address va in as. Device
// addresses take the uncached path (write buffer + bus, stalling for the
// reply); everything else is a cached memory access.
func (c *CPU) Load(as *vm.AddressSpace, va vm.VAddr, size phys.AccessSize) (uint64, error) {
	c.ctr.Instructions.Inc()
	c.ctr.Loads.Inc()
	c.charge(c.cfg.IssueCycles)
	pa, err := c.translate(as, va, vm.AccessLoad)
	if err != nil {
		return 0, err
	}
	return c.physLoad(pa, size)
}

// Store issues a store of the low size bytes of val at va in as.
func (c *CPU) Store(as *vm.AddressSpace, va vm.VAddr, size phys.AccessSize, val uint64) error {
	c.ctr.Instructions.Inc()
	c.ctr.Stores.Inc()
	c.charge(c.cfg.IssueCycles)
	pa, err := c.translate(as, va, vm.AccessStore)
	if err != nil {
		return err
	}
	return c.physStore(pa, size, val)
}

// Swap issues an atomic exchange-style read-modify-write at va: val is
// delivered to the target and the previous/returned value comes back in
// one indivisible bus transaction. It models the compare-and-exchange
// instruction SHRIMP's first solution initiates DMA with (§2.4) and the
// vehicle for user-level atomic operations (§3.5). On plain memory it
// degenerates to a local exchange.
func (c *CPU) Swap(as *vm.AddressSpace, va vm.VAddr, size phys.AccessSize, val uint64) (uint64, error) {
	c.ctr.Instructions.Inc()
	c.ctr.RMWs.Inc()
	c.charge(c.cfg.IssueCycles)
	pa, err := c.translate(as, va, vm.AccessRMW)
	if err != nil {
		return 0, err
	}
	if c.bus.IsDevice(pa) {
		c.ctr.DeviceAccess.Inc()
		old, err := c.wb.RMW(pa, size, val)
		c.pump()
		return old, err
	}
	c.ctr.MemoryAccess.Inc()
	c.charge(2 * c.cfg.CacheHitCycles)
	old, err := c.mem.Read(pa, size)
	if err != nil {
		return 0, err
	}
	if err := c.mem.Write(pa, size, val); err != nil {
		return 0, err
	}
	return old, nil
}

// MB executes a memory barrier: the write buffer drains so that every
// prior store reaches its device before MB returns.
func (c *CPU) MB() error {
	c.ctr.Instructions.Inc()
	c.ctr.Barriers.Inc()
	c.charge(c.cfg.IssueCycles + c.cfg.MBCycles)
	err := c.wb.Drain()
	c.pump()
	return err
}

// PhysLoad performs a privileged physical-address load (kernel/PAL only).
func (c *CPU) PhysLoad(pa phys.Addr, size phys.AccessSize) (uint64, error) {
	if c.mode == User {
		return 0, &PrivilegeError{Op: "physical load", Mode: c.mode}
	}
	c.ctr.Instructions.Inc()
	c.ctr.Loads.Inc()
	c.charge(c.cfg.IssueCycles)
	return c.physLoad(pa, size)
}

// PhysStore performs a privileged physical-address store (kernel/PAL only).
func (c *CPU) PhysStore(pa phys.Addr, size phys.AccessSize, val uint64) error {
	if c.mode == User {
		return &PrivilegeError{Op: "physical store", Mode: c.mode}
	}
	c.ctr.Instructions.Inc()
	c.ctr.Stores.Inc()
	c.charge(c.cfg.IssueCycles)
	return c.physStore(pa, size, val)
}

// PhysSwap performs a privileged physical-address atomic exchange
// (kernel/PAL only) — the kernel's path to the engine's atomic unit when
// it performs atomic operations on behalf of a process.
func (c *CPU) PhysSwap(pa phys.Addr, size phys.AccessSize, val uint64) (uint64, error) {
	if c.mode == User {
		return 0, &PrivilegeError{Op: "physical swap", Mode: c.mode}
	}
	c.ctr.Instructions.Inc()
	c.ctr.RMWs.Inc()
	c.charge(c.cfg.IssueCycles)
	if c.bus.IsDevice(pa) {
		c.ctr.DeviceAccess.Inc()
		old, err := c.wb.RMW(pa, size, val)
		c.pump()
		return old, err
	}
	c.ctr.MemoryAccess.Inc()
	c.charge(2 * c.cfg.CacheHitCycles)
	old, err := c.mem.Read(pa, size)
	if err != nil {
		return 0, err
	}
	return old, c.mem.Write(pa, size, val)
}

func (c *CPU) physLoad(pa phys.Addr, size phys.AccessSize) (uint64, error) {
	if c.bus.IsDevice(pa) {
		c.ctr.DeviceAccess.Inc()
		v, err := c.wb.Load(pa, size)
		c.pump()
		return v, err
	}
	c.ctr.MemoryAccess.Inc()
	c.charge(c.cfg.CacheHitCycles)
	return c.mem.Read(pa, size)
}

func (c *CPU) physStore(pa phys.Addr, size phys.AccessSize, val uint64) error {
	if c.bus.IsDevice(pa) {
		c.ctr.DeviceAccess.Inc()
		// Issue cost was already charged; the post itself is free.
		err := c.wb.Store(c.clock, 0, pa, size, val)
		c.pump()
		return err
	}
	c.ctr.MemoryAccess.Inc()
	c.charge(c.cfg.CacheHitCycles)
	return c.mem.Write(pa, size, val)
}
