// Package kernel models the operating system: the trap machinery whose
// cost motivates the whole paper, the software virtual_to_physical
// translation of Figure 1, and the setup-time services every user-level
// DMA scheme needs (shadow mappings, register-context assignment, key
// distribution, PAL-code installation).
//
// The crucial boundary the paper draws runs through this package:
//
//   - Setup-time work (mmap of shadow pages, handing out keys and
//     register contexts, installing PAL routines) happens once, through
//     ordinary kernel interfaces — no kernel modification.
//   - The SHRIMP-2 and FLASH schemes additionally need a context-switch
//     hook; those are the EnableSHRIMP2Hook / EnableFLASHHook methods,
//     explicitly marked as the kernel modifications the paper's own
//     methods ("Key-based", "Extended Shadow", "Repeated Passing",
//     "PAL code") never call.
package kernel

import (
	"fmt"

	"uldma/internal/cpu"
	"uldma/internal/dma"
	"uldma/internal/iommu"
	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// Syscall numbers.
const (
	// SysNull is an empty system call: trap in, trap out. It is the
	// lmbench-style baseline the paper cites at 1,000-5,000 cycles.
	SysNull = iota
	// SysDMA is Figure 1: translate both addresses, check the range,
	// program the engine's control registers, read back the status.
	SysDMA
	// SysAtomic performs an atomic operation through the kernel (the
	// expensive baseline §3.5 argues against). Args: op, vaddr, operand.
	SysAtomic
	// SysDMAStatus reads the engine's status register: bytes remaining
	// in the most recent transfer (or StatusFailure). It is how a
	// kernel-DMA client polls for completion.
	SysDMAStatus
	// SysDMAWait blocks the calling process until its outstanding
	// transfer completes (the process's register-context transfer, or
	// the engine's last transfer for the kernel path). The process is
	// descheduled; it wakes after completion plus the interrupt-and-
	// reschedule overhead. Returns 0, or StatusFailure when there is
	// nothing to wait on.
	SysDMAWait
)

// InterruptWakeupCycles models completion-interrupt delivery plus the
// scheduler putting the sleeping process back on the CPU.
const InterruptWakeupCycles = 800

// Virtual-address layout conventions. The kernel places shadow and
// device mappings at fixed offsets from the data addresses they mirror,
// so user libraries can compute shadow(v) without a lookup — mirroring
// how the real system precomputed shadow pointers at mmap time.
const (
	// ShadowVABase: shadow(v) = ShadowVABase + v.
	ShadowVABase vm.VAddr = 0x1_0000_0000
	// AtomicVABase: atomicShadow(v, op) = AtomicVABase + op<<32 + v.
	AtomicVABase vm.VAddr = 0x10_0000_0000
	// CtxPageVA is where a process's register-context page is mapped.
	CtxPageVA vm.VAddr = 0xC000_0000
)

// ShadowVA returns the user virtual address aliasing va's shadow page.
func ShadowVA(va vm.VAddr) vm.VAddr { return ShadowVABase + va }

// AtomicVA returns the user virtual address performing atomic op on va.
func AtomicVA(va vm.VAddr, op int) vm.VAddr {
	return AtomicVABase + vm.VAddr(uint64(op)<<32) + va
}

// Config sets the kernel cost model (CPU cycles).
type Config struct {
	// SyscallEntryCycles / SyscallExitCycles are the trap overheads;
	// their sum is the empty-syscall cost (lmbench band: 1,000-5,000).
	SyscallEntryCycles int64
	SyscallExitCycles  int64
	// TranslateCycles is one software virtual_to_physical, including the
	// access-rights check.
	TranslateCycles int64
	// CheckSizeCycles is Figure 1's check_size of the whole transfer
	// range.
	CheckSizeCycles int64
	// KeySeed seeds DMA-key generation (deterministic per machine).
	KeySeed uint64
	// UserFrameBase is where the physical frame allocator starts.
	UserFrameBase phys.Addr
}

// Counters counts kernel activity: the kernel's live obs cells,
// registered with the machine's registry and copied by value into
// snapshots, so they rewind with the world. The Pager* cells count the
// paging model (paging.go); they are registered separately
// (RegisterPagerMetrics) so worlds without an IOMMU keep their
// registry dump byte-identical.
type Counters struct {
	Syscalls    obs.Counter
	DMASyscalls obs.Counter
	Faults      obs.Counter
	CtxWaits    obs.Counter
	CtxSteals   obs.Counter

	PagerEvictions obs.Counter // resident device pages evicted
	PagerPageIns   obs.Counter // device pages made resident by a fault
	PagerPins      obs.Counter // device-page pins taken by PinRange
}

// Kernel is one node's operating system.
type Kernel struct {
	cfg    Config
	cpu    *cpu.CPU
	mem    *phys.Memory
	engine *dma.Engine
	runner *proc.Runner

	rng       *sim.Rand
	nextASID  int
	nextFrame phys.Addr

	ctxOwner []proc.PID // register context -> owning process (0 = free)
	keys     []uint64   // keys handed out per context (keyed mode)
	procCtx  map[proc.PID]int

	// Context-scheduling state (see ring.go): LRU use stamps for the
	// steal policy and the FIFO queue of processes waiting for a
	// context.
	ctxUse     []uint64
	useTick    uint64
	ctxWaiters []*proc.Process

	shrimp2Hook bool
	flashHook   bool
	palDMA      bool
	ctr         Counters

	// Virtual-address DMA (paging.go): the machine's IOMMU, if one is
	// configured, and the kernel's device-page residency model.
	iommu *iommu.IOMMU
	pager pagerState

	tr   *obs.Trace
	node int32
}

// New boots a kernel on the given hardware. It installs itself as the
// runner's syscall handler.
func New(cfg Config, c *cpu.CPU, mem *phys.Memory, engine *dma.Engine, runner *proc.Runner) *Kernel {
	k := &Kernel{
		cfg:       cfg,
		cpu:       c,
		mem:       mem,
		engine:    engine,
		runner:    runner,
		rng:       sim.NewRand(cfg.KeySeed ^ 0x9b1ee5c0ffee),
		nextASID:  1,
		nextFrame: cfg.UserFrameBase,
		ctxOwner:  make([]proc.PID, engine.NumContexts()),
		keys:      make([]uint64, engine.NumContexts()),
		procCtx:   make(map[proc.PID]int),
		ctxUse:    make([]uint64, engine.NumContexts()),
	}
	runner.SetSyscallHandler(k)
	// Ordinary process teardown (not a context-switch modification):
	// reclaim the register context and key when a process exits.
	runner.AddExitHook(func(p *proc.Process) { k.ReleaseContext(p) })
	return k
}

// Counters returns the activity counters.
func (k *Kernel) Counters() Counters { return k.ctr }

// RegisterMetrics registers the kernel's counters with the machine-wide
// registry.
func (k *Kernel) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("kernel.syscalls", &k.ctr.Syscalls)
	r.RegisterCounter("kernel.dma_syscalls", &k.ctr.DMASyscalls)
	r.RegisterCounter("kernel.faults", &k.ctr.Faults)
	r.RegisterCounter("kernel.ctx_waits", &k.ctr.CtxWaits)
	r.RegisterCounter("kernel.ctx_steals", &k.ctr.CtxSteals)
}

// SetTracer attaches (or detaches, with nil) the structured trace
// spine. Enabled, every syscall emits a CatSyscall span covering
// entry to exit.
func (k *Kernel) SetTracer(t *obs.Trace, node int32) {
	k.tr = t
	k.node = node
}

// syscallName maps a syscall number to its static trace label.
// Returned strings are constants: the hot path never formats.
func syscallName(num int) string {
	switch num {
	case SysNull:
		return "sys_null"
	case SysDMA:
		return "sys_dma"
	case SysAtomic:
		return "sys_atomic"
	case SysDMAStatus:
		return "sys_dma_status"
	case SysDMAWait:
		return "sys_dma_wait"
	}
	return "sys_unknown"
}

// RNGState exposes the key RNG's position for the machine fingerprint:
// SplitMix64 advances its state by a constant per draw, so in steady
// state the delta per iteration is constant.
func (k *Kernel) RNGState() uint64 { return k.rng.State() }

// PageSize returns the system page size.
func (k *Kernel) PageSize() uint64 { return k.engine.Config().PageSize }

// NewAddressSpace creates a fresh address space with a unique ASID.
func (k *Kernel) NewAddressSpace() *vm.AddressSpace {
	as := vm.NewAddressSpace(k.nextASID, k.PageSize())
	k.nextASID++
	return as
}

// AllocPage allocates a physical frame and maps it at va with prot.
// It returns the frame so tests can inspect physical contents.
func (k *Kernel) AllocPage(as *vm.AddressSpace, va vm.VAddr, prot vm.Prot) (phys.Addr, error) {
	frame := k.nextFrame
	if uint64(frame)+k.PageSize() > uint64(k.mem.Size()) {
		return 0, fmt.Errorf("kernel: out of physical memory at %v", frame)
	}
	k.nextFrame += phys.Addr(k.PageSize())
	if err := as.Map(va, frame, prot); err != nil {
		return 0, err
	}
	return frame, nil
}

// MapFrame maps an existing physical frame (shared memory, device page)
// at va.
func (k *Kernel) MapFrame(as *vm.AddressSpace, va vm.VAddr, frame phys.Addr, prot vm.Prot) error {
	return as.Map(va, frame, prot)
}

// MapShadow creates the shadow alias for the already-mapped page at va:
// ShadowVA(va) -> engine shadow window encoding of the page's frame
// (with the process's context id burned into the address bits in
// extended mode). The shadow page inherits the real page's protection —
// a process can only pass physical addresses it could access anyway.
// This is the once-per-page setup cost of every user-level scheme.
func (k *Kernel) MapShadow(p *proc.Process, va vm.VAddr) error {
	ctx := 0
	if c, ok := k.procCtx[p.PID()]; ok {
		ctx = c
	}
	return k.MapShadowAS(p.AddressSpace(), ctx, va)
}

// MapShadowAS is MapShadow for an address space with no process
// attached yet: warmed scenario templates (internal/core) build and
// map their spaces once, snapshot the world, and only spawn processes
// into them per run. ctx is the register-context id to burn into the
// shadow encoding — 0 when the eventual owner holds no context, which
// is always the case in repeated-passing mode.
func (k *Kernel) MapShadowAS(as *vm.AddressSpace, ctx int, va vm.VAddr) error {
	base := as.PageBase(va)
	pte, ok := as.Lookup(base)
	if !ok {
		return fmt.Errorf("kernel: MapShadow: %v not mapped", va)
	}
	cfg := k.engine.Config()
	prot := pte.Prot
	if cfg.RemoteBase != 0 && pte.Frame >= cfg.RemoteBase {
		// Remote pages are write-only (the fabric has no remote reads),
		// but their shadow alias must also be loadable: protocol status
		// loads on shadow(dst) — e.g. the 5th access of repeated
		// passing — read engine state, never remote data.
		prot = vm.Read | vm.Write
	}
	return as.Map(ShadowVA(base), cfg.Shadow(pte.Frame, ctx), prot)
}

// MapAtomic creates the atomic-operation aliases for the page at va:
// one mapping per operation code. Local pages need read+write; remote
// pages (which are write-only by construction) need only write — the
// read half of the RMW happens on the remote node, not through the
// local mapping.
func (k *Kernel) MapAtomic(p *proc.Process, va vm.VAddr) error {
	as := p.AddressSpace()
	base := as.PageBase(va)
	pte, ok := as.Lookup(base)
	if !ok {
		return fmt.Errorf("kernel: MapAtomic: %v not mapped", va)
	}
	need := vm.Read | vm.Write
	if cfg := k.engine.Config(); cfg.RemoteBase != 0 && pte.Frame >= cfg.RemoteBase {
		need = vm.Write
	}
	if !pte.Prot.Can(need) {
		return fmt.Errorf("kernel: MapAtomic: %v needs %v", va, need)
	}
	for _, op := range []int{dma.AtomicAdd, dma.AtomicSwap, dma.AtomicCAS} {
		pa := k.engine.Config().AtomicShadow(pte.Frame, op)
		if err := as.Map(AtomicVA(base, op), pa, vm.Read|vm.Write); err != nil {
			return err
		}
	}
	return nil
}

// MaterializeTable encodes p's current mappings as a hardware-walkable
// three-level page table in physical memory, allocating table pages
// from the kernel's frame pool. Debuggers and the calibration tests use
// it; the simulator itself executes against the architectural map.
func (k *Kernel) MaterializeTable(p *proc.Process) (*vm.MaterializedTable, error) {
	alloc := func() (phys.Addr, error) {
		frame := k.nextFrame
		if uint64(frame)+k.PageSize() > uint64(k.mem.Size()) {
			return 0, fmt.Errorf("kernel: out of physical memory for page tables")
		}
		k.nextFrame += phys.Addr(k.PageSize())
		return frame, nil
	}
	return vm.Materialize(p.AddressSpace(), k.mem, alloc)
}

// MapRemote maps the page at va in p's address space onto another
// node's memory window: node's physical page at remoteOff. Stores to
// the page become single-word remote writes through the NIC; the page's
// shadow alias (create it with MapShadow afterwards) names the remote
// page as a DMA destination. Remote pages are write-only — the fabric
// does not implement remote reads.
func (k *Kernel) MapRemote(p *proc.Process, va vm.VAddr, node int, remoteOff phys.Addr) error {
	cfg := k.engine.Config()
	if cfg.RemoteBase == 0 {
		return fmt.Errorf("kernel: machine has no remote window")
	}
	if uint64(remoteOff)%k.PageSize() != 0 {
		return fmt.Errorf("kernel: MapRemote offset %v not page-aligned", remoteOff)
	}
	pa := cfg.RemoteAddr(node, remoteOff)
	if uint64(pa) >= 1<<cfg.MemBits {
		return fmt.Errorf("kernel: node %d offset %v exceeds the remote window", node, remoteOff)
	}
	return p.AddressSpace().Map(va, pa, vm.Write)
}

// AssignContext reserves a DMA register context for p, maps the
// context's page into p's address space at CtxPageVA (keyed mode), and
// returns (ctx, key). In extended mode the key is zero and only the
// context id matters — it is burned into subsequent MapShadow calls. If
// every context is taken the process must fall back to kernel-level DMA,
// exactly as §3.2 prescribes.
func (k *Kernel) AssignContext(p *proc.Process) (int, uint64, error) {
	if c, ok := k.procCtx[p.PID()]; ok {
		return c, k.keys[c], nil // idempotent
	}
	for ctx := range k.ctxOwner {
		if k.ctxOwner[ctx] != 0 {
			continue
		}
		if err := k.grantContext(p, ctx); err != nil {
			return 0, 0, err
		}
		return ctx, k.keys[ctx], nil
	}
	return 0, 0, fmt.Errorf("kernel: no free DMA register context (have %d)", len(k.ctxOwner))
}

// ReleaseContext frees p's register context (at process exit, or
// voluntarily under the cooperative-yield policy). The context's ring is
// torn down and the head of the context wait queue, if any, is woken.
func (k *Kernel) ReleaseContext(p *proc.Process) {
	ctx, ok := k.procCtx[p.PID()]
	if !ok {
		return
	}
	k.revokeContext(ctx)
	k.wakeCtxWaiter()
}

// ContextOf returns the register context assigned to p, if any.
func (k *Kernel) ContextOf(p *proc.Process) (int, bool) {
	c, ok := k.procCtx[p.PID()]
	return c, ok
}

// MapOut installs a SHRIMP-1 page mapping after checking the process
// owns the source page.
func (k *Kernel) MapOut(p *proc.Process, srcVA vm.VAddr, dstPA phys.Addr) error {
	as := p.AddressSpace()
	base := as.PageBase(srcVA)
	pte, ok := as.Lookup(base)
	if !ok || !pte.Prot.Can(vm.Read|vm.Write) {
		return fmt.Errorf("kernel: MapOut: %v not owned read+write", srcVA)
	}
	return k.engine.MapOut(pte.Frame, dstPA)
}

// --- kernel modifications required by PRIOR work (comparators only) ---

// EnableSHRIMP2Hook adds the context-switch invalidation SHRIMP-2
// requires: "the operating system must invalidate any partially
// initiated user-level DMA transfer on every context switch". Calling
// this models shipping an OS patch — the paper's methods never need it.
func (k *Kernel) EnableSHRIMP2Hook() {
	if k.shrimp2Hook {
		return
	}
	k.shrimp2Hook = true
	k.runner.AddSwitchHook(func(_, _ *proc.Process) {
		k.engine.AbortPending()
	})
}

// EnableFLASHHook adds FLASH's context-switch hook: the kernel informs
// the engine of the running process's identity at every switch.
func (k *Kernel) EnableFLASHHook() {
	if k.flashHook {
		return
	}
	k.flashHook = true
	k.engine.SetPIDTracking(true)
	k.runner.AddSwitchHook(func(_, to *proc.Process) {
		k.engine.SetCurrentPID(int(to.PID()))
	})
}

// KernelModified reports whether either prior-work hook is installed —
// the property the paper's methods keep false.
func (k *Kernel) KernelModified() bool { return k.shrimp2Hook || k.flashHook }

// --- PAL code (§2.7) ---

// PALUserDMA is the name of the installed user-level DMA PAL call.
const PALUserDMA = "user_level_dma"

// InstallPALDMA installs the user_level_dma PAL routine: the two-access
// shadow sequence executed uninterrupted in PAL mode. A super-user
// installs it once; afterwards any process may invoke it — no kernel
// modification involved.
func (k *Kernel) InstallPALDMA() {
	k.palDMA = true
	k.runner.InstallPAL(PALUserDMA, func(p *proc.Process, args []uint64) (uint64, error) {
		if len(args) != 3 {
			return dma.StatusFailure, fmt.Errorf("kernel: %s wants (vsrc, vdst, size)", PALUserDMA)
		}
		vsrc, vdst, size := vm.VAddr(args[0]), vm.VAddr(args[1]), args[2]
		as := p.AddressSpace()
		// STORE size TO shadow(vdestination)
		if err := k.cpu.Store(as, ShadowVA(vdst), phys.Size64, size); err != nil {
			return dma.StatusFailure, err
		}
		// LOAD return_status FROM shadow(vsource)
		return k.cpu.Load(as, ShadowVA(vsrc), phys.Size64)
	})
}

// --- syscall dispatch ---

// Syscall implements proc.SyscallHandler: Figure 1's uninterruptible
// kernel path, with the trap costs charged explicitly.
func (k *Kernel) Syscall(p *proc.Process, num int, args []uint64) (uint64, error) {
	k.ctr.Syscalls.Inc()
	start := k.cpu.Clock().Now()
	k.cpu.Spin(k.cfg.SyscallEntryCycles)
	ret, err := k.dispatch(p, num, args)
	k.cpu.Spin(k.cfg.SyscallExitCycles)
	if k.tr != nil {
		end := k.cpu.Clock().Now()
		k.tr.Span(start, end-start, obs.CatSyscall, syscallName(num),
			k.node, int32(p.PID()), uint64(num), ret, 0)
	}
	return ret, err
}

func (k *Kernel) dispatch(p *proc.Process, num int, args []uint64) (uint64, error) {
	switch num {
	case SysNull:
		return 0, nil
	case SysDMA:
		if len(args) != 3 {
			return dma.StatusFailure, fmt.Errorf("kernel: SysDMA wants (vsrc, vdst, size)")
		}
		return k.sysDMA(p, vm.VAddr(args[0]), vm.VAddr(args[1]), args[2])
	case SysAtomic:
		if len(args) != 3 {
			return 0, fmt.Errorf("kernel: SysAtomic wants (op, vaddr, operand)")
		}
		return k.sysAtomic(p, int(args[0]), vm.VAddr(args[1]), args[2])
	case SysDMAStatus:
		return k.cpu.PhysLoad(k.engine.Config().ControlBase+dma.RegStatus, phys.Size64)
	case SysDMAWait:
		return k.sysDMAWait(p)
	default:
		return 0, fmt.Errorf("kernel: unknown syscall %d", num)
	}
}

// sysDMA is Figure 1 verbatim.
func (k *Kernel) sysDMA(p *proc.Process, vsrc, vdst vm.VAddr, size uint64) (uint64, error) {
	k.ctr.DMASyscalls.Inc()
	as := p.AddressSpace()

	// psource = virtual_to_physical(vsource)
	k.cpu.Spin(k.cfg.TranslateCycles)
	psrc, err := as.Translate(vsrc, vm.AccessLoad)
	if err != nil {
		k.ctr.Faults.Inc()
		return dma.StatusFailure, err
	}
	// pdestination = virtual_to_physical(vdestination)
	k.cpu.Spin(k.cfg.TranslateCycles)
	pdst, err := as.Translate(vdst, vm.AccessStore)
	if err != nil {
		k.ctr.Faults.Inc()
		return dma.StatusFailure, err
	}
	// check_size(): protection over the whole transfer range.
	k.cpu.Spin(k.cfg.CheckSizeCycles)
	if err := as.CheckRange(vsrc, size, vm.AccessLoad); err != nil {
		k.ctr.Faults.Inc()
		return dma.StatusFailure, err
	}
	if err := as.CheckRange(vdst, size, vm.AccessStore); err != nil {
		k.ctr.Faults.Inc()
		return dma.StatusFailure, err
	}

	// STORE psource TO DMA_SOURCE … LOAD status FROM DMA_STATUS.
	ctl := k.engine.Config().ControlBase
	if err := k.cpu.PhysStore(ctl+dma.RegSource, phys.Size64, uint64(psrc)); err != nil {
		return dma.StatusFailure, err
	}
	if err := k.cpu.PhysStore(ctl+dma.RegDest, phys.Size64, uint64(pdst)); err != nil {
		return dma.StatusFailure, err
	}
	if err := k.cpu.PhysStore(ctl+dma.RegSize, phys.Size64, size); err != nil {
		return dma.StatusFailure, err
	}
	return k.cpu.PhysLoad(ctl+dma.RegStatus, phys.Size64)
}

// sysDMAWait puts the caller to sleep until its outstanding transfer
// completes: the blocking alternative to status polling. The wakeup
// time is the transfer's completion plus interrupt delivery and
// rescheduling; while asleep, other processes get the CPU.
func (k *Kernel) sysDMAWait(p *proc.Process) (uint64, error) {
	var t *dma.Transfer
	if ctx, ok := k.procCtx[p.PID()]; ok {
		t = k.engine.ContextTransfer(ctx)
	}
	if t == nil {
		t = k.engine.LastTransfer()
	}
	if t == nil || t.Failed {
		return dma.StatusFailure, nil
	}
	now := k.cpu.Clock().Now()
	if t.Done(now) {
		return 0, nil
	}
	wake := t.End + k.cpu.Config().Freq.Cycles(InterruptWakeupCycles)
	p.BlockUntil(wake)
	return 0, nil
}

// sysAtomic performs an engine atomic operation from kernel mode — the
// costly baseline user-level atomics replace.
func (k *Kernel) sysAtomic(p *proc.Process, op int, va vm.VAddr, operand uint64) (uint64, error) {
	k.cpu.Spin(k.cfg.TranslateCycles)
	pa, err := p.AddressSpace().Translate(va, vm.AccessRMW)
	if err != nil {
		k.ctr.Faults.Inc()
		return 0, err
	}
	target := k.engine.Config().AtomicShadow(pa, op)
	return k.cpu.PhysSwap(target, phys.Size64, operand)
}
