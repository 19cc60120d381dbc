// Package machine composes the substrates — clock, memory, bus, write
// buffer, CPU, DMA engine, kernel, scheduler — into a workstation, and
// provides the calibrated configuration presets the experiments run on.
//
// The reference preset, Alpha3000TC, models the paper's testbed: a DEC
// Alpha 3000 model 300 (150 MHz 21064) with the Telegraphos prototype
// board on a 12.5 MHz TurboChannel. Its cost constants are calibrated so
// the four Table 1 initiation times land on the published values; the
// PCI presets back the paper's "faster buses will help" projection
// (experiment X4).
package machine

import (
	"fmt"

	"uldma/internal/bus"
	"uldma/internal/cpu"
	"uldma/internal/dma"
	"uldma/internal/iommu"
	"uldma/internal/kernel"
	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// Physical address map shared by every preset. Main memory sits at 0;
// the engine's windows sit far above it.
const (
	// MemBits is the width of a memory address inside shadow encodings:
	// 64 MiB of encodable space.
	MemBits = 26
	// RemoteWindow marks decoded DMA destinations as remote: node i's
	// memory appears at RemoteWindow + i<<NodeShift.
	RemoteWindow = phys.Addr(0x0200_0000)
	// NodeShift gives each node a 4 MiB remote window.
	NodeShift = 22
	// CtxPageBase is where the engine's register-context pages live.
	CtxPageBase = phys.Addr(0x8000_0000)
	// ControlBase is the engine's control page (kernel DMA registers).
	ControlBase = phys.Addr(0x9000_0000)
	// RingBase is the engine's descriptor-ring doorbell window (one
	// page per register context).
	RingBase = phys.Addr(0xA000_0000)
	// ShadowBase is the engine's shadow window.
	ShadowBase = phys.Addr(0x1_0000_0000)
	// AtomicBase is the engine's atomic-operation window.
	AtomicBase = phys.Addr(0x2_0000_0000)
	// VABase is the engine's virtual-address window (IOMMU-translated
	// initiation; see internal/iommu and dma/va.go). Zero on machines
	// built without EnableVirtualDMA.
	VABase = phys.Addr(0x4_0000_0000)
)

// MaxNodes is how many cluster nodes the remote window can address.
const MaxNodes = int((0x0400_0000 - uint64(RemoteWindow)) >> NodeShift)

// Config fully describes a machine.
type Config struct {
	Name     string
	MemSize  int
	PageSize uint64

	CPU     cpu.Config
	BusFreq sim.Hz
	BusCost bus.CostConfig

	WriteBufferEntries  int
	WriteBufferCoalesce bool

	Engine dma.Config
	Kernel kernel.Config
	Runner proc.RunnerConfig

	// IOTLBEntries sizes the IOMMU's translation cache when the machine
	// has a VA window (Engine.VABase != 0); 0 means
	// iommu.DefaultTLBEntries.
	IOTLBEntries int
}

// EnableVirtualDMA returns cfg with the IOMMU and the engine's
// virtual-address window configured: device-side VAs translate through
// per-context device page tables at walk time, IOTLB misses cost
// Engine.IOTLBMissTime, and a small bounce-buffer region is carved from
// the top of physical memory for the bounce recovery policy. The
// address map, protocol windows and cost model are untouched, so shadow
// (physical) initiation on the same machine behaves exactly as without
// the IOMMU.
func EnableVirtualDMA(cfg Config) Config {
	cfg.Engine.VABase = VABase
	if cfg.Engine.IOTLBMissTime == 0 {
		cfg.Engine.IOTLBMissTime = 2 * sim.Microsecond
	}
	if cfg.Engine.BouncePages == 0 {
		const bouncePages = 4
		cfg.Engine.BouncePages = bouncePages
		cfg.Engine.BounceBase = phys.Addr(uint64(cfg.MemSize) - bouncePages*cfg.PageSize)
	}
	return cfg
}

// Alpha3000TC returns the calibrated paper-testbed preset with the DMA
// engine wired for the given protocol mode. seqLen selects the
// repeated-passing variant when mode is ModeRepeated (use 5 for the
// paper's safe sequence).
func Alpha3000TC(mode dma.Mode, seqLen int) Config {
	const pageSize = 8192 // Alpha 21064
	memSize := 4 << 20    // 4 MiB keeps experiment setup fast
	return Config{
		Name:     "DEC Alpha 3000/300 + Telegraphos on TurboChannel",
		MemSize:  memSize,
		PageSize: pageSize,
		CPU: cpu.Config{
			Freq:           150 * sim.MHz,
			IssueCycles:    1,
			CacheHitCycles: 2,
			TLBMissCycles:  40,
			MBCycles:       2,
			TLBEntries:     32,
		},
		BusFreq: 12_500_000, // TurboChannel: 80 ns/cycle
		BusCost: bus.CostConfig{
			StoreCycles:       6, // posted write: 480 ns on the wire
			LoadRequestCycles: 4,
			LoadReplyCycles:   3, // uncached load round trip: 560 ns
			RMWExtraCycles:    2,
		},
		WriteBufferEntries:  8,
		WriteBufferCoalesce: true,
		Engine: dma.Config{
			Mode:           mode,
			SeqLen:         seqLen,
			Contexts:       8, // the paper's "several (say 4 to 8)"
			CtxBits:        2, // the paper's "1-2 bits"
			MemBits:        MemBits,
			PageSize:       pageSize,
			MemSize:        uint64(memSize),
			ShadowBase:     ShadowBase,
			CtxPageBase:    CtxPageBase,
			ControlBase:    ControlBase,
			AtomicBase:     AtomicBase,
			RingBase:       RingBase,
			RemoteBase:     RemoteWindow,
			NodeShift:      NodeShift,
			KeyCheckCycles: 2,
			StartupTime:    2 * sim.Microsecond,
			Bandwidth:      50_000_000, // ~TurboChannel sustained
		},
		Kernel: kernel.Config{
			SyscallEntryCycles: 1100, // entry+exit = 2150 cycles: inside
			SyscallExitCycles:  1050, // lmbench's 1,000-5,000 band
			TranslateCycles:    130,
			CheckSizeCycles:    75,
			KeySeed:            0x7e1e94a905, // deterministic per preset
			UserFrameBase:      0x10000,
		},
		Runner: proc.RunnerConfig{
			SwitchCycles:  600,
			PALCallCycles: 30,
		},
	}
}

// PCI returns the Alpha preset rebased onto a PCI-style bus at the given
// frequency (33 or 66 MHz) — the §3.4 projection that faster buses make
// user-level DMA even cheaper.
func PCI(mode dma.Mode, seqLen int, freq sim.Hz) Config {
	cfg := Alpha3000TC(mode, seqLen)
	cfg.Name = fmt.Sprintf("Alpha + %v PCI-class bus", freq)
	cfg.BusFreq = freq
	cfg.Engine.Bandwidth = uint64(freq) * 4 / 2 // 32-bit bus, ~50% efficiency
	return cfg
}

// Era presets for the trend experiment (X7): the paper's §1/§2.2
// argument is that processors and networks improve faster than
// operating systems, so the TRAP'S CYCLE COUNT grows across hardware
// generations (Ousterhout; Rosenblum et al.) while everything else
// shrinks. Each preset scales the clocks up and the syscall cycle count
// up, per those observations.

// Workstation1994 is the earlier-generation point: slower CPU and bus,
// but a (relatively) leaner kernel.
func Workstation1994(mode dma.Mode, seqLen int) Config {
	cfg := Alpha3000TC(mode, seqLen)
	cfg.Name = "1994-class: 100MHz CPU, 12.5MHz TurboChannel"
	cfg.CPU.Freq = 100 * sim.MHz
	cfg.Kernel.SyscallEntryCycles = 800
	cfg.Kernel.SyscallExitCycles = 700 // 1,500-cycle trap
	return cfg
}

// Workstation2000 is the projection the paper argues toward: a much
// faster CPU and bus, and a kernel whose trap costs MORE cycles than
// before.
func Workstation2000(mode dma.Mode, seqLen int) Config {
	cfg := PCI(mode, seqLen, 66*sim.MHz)
	cfg.Name = "2000-class projection: 500MHz CPU, 66MHz PCI"
	cfg.CPU.Freq = 500 * sim.MHz
	cfg.Kernel.SyscallEntryCycles = 2200
	cfg.Kernel.SyscallExitCycles = 2100 // 4,300-cycle trap: the upper lmbench band
	return cfg
}

// Machine is one assembled workstation.
type Machine struct {
	Cfg    Config
	Clock  *sim.Clock
	Events *sim.EventQueue
	Mem    *phys.Memory
	Bus    *bus.Bus
	WB     *bus.WriteBuffer
	CPU    *cpu.CPU
	Engine *dma.Engine
	Kernel *kernel.Kernel
	Runner *proc.Runner
	// IOMMU is the machine's I/O MMU; nil unless the configuration has a
	// VA window (EnableVirtualDMA).
	IOMMU *iommu.IOMMU
	// NodeID is the machine's cluster node id (0 for a standalone
	// machine; set by net.NewCluster).
	NodeID int
	// Obs is the machine-wide metrics registry: every component's
	// counters under dotted names, in a fixed registration order.
	Obs *obs.Registry
	// Tracer is the structured trace spine; nil until EnableTrace (the
	// pay-for-what-you-use disabled state).
	Tracer *obs.Trace
	// hosted marks a machine that runs on a shard's clock and event
	// queue (NewHosted): it never owns them, so the whole-queue
	// operations (Settle, Snapshot) are forbidden — the shard barrier
	// drives quiescence.
	hosted bool
}

// Hosted reports whether the machine is shard-hosted: running on an
// external clock and event queue it does not own.
func (m *Machine) Hosted() bool { return m.hosted }

// EventQueueHint is the event-queue capacity pre-sized for a
// standalone machine: a single node rarely has more than a handful of
// DMA completions in flight, and pre-sizing keeps the queue's heap
// from reallocating in steady state (the sim bench asserts 0 allocs/op
// on the scheduling path).
const EventQueueHint = 16

// New assembles a machine from cfg. The engine's windows are mapped on
// the bus; the kernel installs itself as the syscall handler.
func New(cfg Config) (*Machine, error) {
	return NewWithClock(cfg, sim.NewClock(), sim.NewEventQueueSize(EventQueueHint))
}

// NewWithClock assembles a machine on an externally owned clock and
// event queue — how clusters keep several nodes causally consistent.
func NewWithClock(cfg Config, clock *sim.Clock, events *sim.EventQueue) (*Machine, error) {
	return assemble(cfg, clock, events, events, false)
}

// NewHosted assembles a shard-hosted machine: it runs on the shard's
// clock and event queue but never owns them. The difference from
// NewWithClock is the CPU's pump — on a single-owner queue every CPU
// operation drains due events (DMA completions interleave with
// instructions), but a shard queue holds OTHER nodes' events too, so a
// hosted CPU must not pump it; the shard's RunWindow is the only event
// driver. The DMA engine still schedules its completions and remote
// ships on the shard queue, which is exactly how hosted transfers ride
// the window synchronizer.
func NewHosted(cfg Config, clock *sim.Clock, events *sim.EventQueue) (*Machine, error) {
	return assemble(cfg, clock, events, nil, true)
}

// assemble builds the machine. cpuEvents is the queue the CPU pumps on
// every operation (nil for hosted machines, see NewHosted); events is
// the queue the engine schedules on.
func assemble(cfg Config, clock *sim.Clock, events, cpuEvents *sim.EventQueue, hosted bool) (*Machine, error) {
	mem := phys.New(cfg.MemSize)
	b := bus.New(clock, cfg.BusFreq, cfg.BusCost)
	wb := bus.NewWriteBuffer(b, cfg.WriteBufferEntries, cfg.WriteBufferCoalesce)
	c := cpu.New(cfg.CPU, clock, cpuEvents, mem, b, wb)

	engine, err := dma.New(cfg.Engine, events, mem)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	e := cfg.Engine
	windows := []struct {
		base phys.Addr
		size uint64
	}{
		{e.ShadowBase, e.ShadowWindowSize()},
		{e.CtxPageBase, e.CtxWindowSize()},
		{e.ControlBase, e.PageSize},
		{e.AtomicBase, e.AtomicWindowSize()},
		{e.RingBase, e.RingWindowSize()},
		{e.RemoteBase, e.RemoteWindowSize()},
		{e.VABase, e.VAWindowSize()},
	}
	for _, w := range windows {
		if w.size == 0 {
			continue
		}
		if err := b.Map(engine, w.base, w.size); err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
	}

	// Wire DMA cycle stealing: transfers master the bus and contend with
	// CPU transactions.
	engine.SetBusReserver(b)

	runner := proc.NewRunner(c, cfg.Runner)
	k := kernel.New(cfg.Kernel, c, mem, engine, runner)
	m := &Machine{
		Cfg: cfg, Clock: clock, Events: events, Mem: mem, Bus: b,
		WB: wb, CPU: c, Engine: engine, Kernel: k, Runner: runner,
		hosted: hosted,
	}
	if cfg.Engine.VABase != 0 {
		io, err := iommu.New(iommu.Config{
			Contexts:   engine.NumContexts(),
			PageSize:   cfg.Engine.PageSize,
			TLBEntries: cfg.IOTLBEntries,
		})
		if err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		if err := engine.AttachIOMMU(io); err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		k.SetIOMMU(io)
		engine.SetFaultResolver(k)
		m.IOMMU = io
	}
	m.registerMetrics()
	return m, nil
}

// MustNew is New that panics on error — for presets known to be valid.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// NewProcess creates an address space and spawns a process in it.
func (m *Machine) NewProcess(name string, body proc.Body) *proc.Process {
	return m.Runner.Spawn(name, m.Kernel.NewAddressSpace(), body)
}

// Run schedules until every process finishes (or the slot budget runs
// out).
func (m *Machine) Run(policy proc.Policy, maxSlots uint64) error {
	return m.Runner.Run(policy, maxSlots)
}

// Settle fires all outstanding events (in-flight DMA completions) and
// advances the clock past the last of them. Returns the settled time.
func (m *Machine) Settle() sim.Time {
	if m.hosted {
		panic("machine: Settle on a shard-hosted machine (the shard owns the event queue)")
	}
	t := m.Events.Drain(m.Clock.Now())
	m.Clock.AdvanceTo(t)
	return m.Clock.Now()
}

// SetupPages is a setup convenience used across examples and benches:
// it allocates n data pages at base in p's address space with prot, and
// creates their shadow aliases.
func (m *Machine) SetupPages(p *proc.Process, base vm.VAddr, n int, prot vm.Prot) ([]phys.Addr, error) {
	frames := make([]phys.Addr, 0, n)
	ps := vm.VAddr(m.Cfg.PageSize)
	for i := 0; i < n; i++ {
		va := base + vm.VAddr(i)*ps
		frame, err := m.Kernel.AllocPage(p.AddressSpace(), va, prot)
		if err != nil {
			return nil, err
		}
		if err := m.Kernel.MapShadow(p, va); err != nil {
			return nil, err
		}
		frames = append(frames, frame)
	}
	return frames, nil
}
