// Package dma implements the network interface's DMA engine — the
// hardware half of every initiation scheme in the paper. It is modelled
// on the Telegraphos prototype board: a bus device whose physical
// address window is split into
//
//   - a shadow window, where the physical address of an access *encodes*
//     a main-memory physical address (plus, for extended shadow
//     addressing, a register-context id). Loads and stores here are
//     argument-passing operations, never memory accesses (§2.3);
//   - register-context pages (key-based scheme, §3.1): one page per
//     context, mapped by the OS into exactly one process, aliasing that
//     context's size/status register;
//   - a control page with the classic kernel-programmed DMA registers
//     (Figure 1) plus the hooks prior work needed (current-PID register
//     for FLASH, abort register for SHRIMP-2);
//   - an atomic-operation window (§3.5), where a single locked
//     read-modify-write bus transaction performs fetch_and_add,
//     fetch_and_store or compare_and_swap on main memory.
//
// The engine is configured with exactly one shadow decode Mode, the way
// a real board is wired for one protocol; experiments build one machine
// per protocol under test.
package dma

import (
	"fmt"

	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/sim"
)

// Mode selects how the engine interprets shadow-window accesses.
type Mode uint8

// Shadow decode modes.
const (
	// ModePaired: STORE size TO shadow(dst) then LOAD FROM shadow(src)
	// into a single global pending slot (SHRIMP's second solution, §2.5;
	// also the sequence PAL code executes, §2.7, and — with PID tracking
	// enabled — the FLASH scheme, §2.6).
	ModePaired Mode = iota
	// ModeKeyed: register contexts addressed by a key#ctx value in the
	// store data (§3.1).
	ModeKeyed
	// ModeExtended: register contexts addressed by spare physical
	// address bits set by the OS in the shadow mapping (§3.2).
	ModeExtended
	// ModeRepeated: the repeated-passing sequence FSM (§3.3); SeqLen
	// selects the 3-, 4- or 5-access variant.
	ModeRepeated
	// ModeMappedOut: SHRIMP's first solution (§2.4) — each source page
	// has a fixed mapped-out destination, and one compare-and-exchange
	// access carries the whole initiation.
	ModeMappedOut
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModePaired:
		return "paired"
	case ModeKeyed:
		return "keyed"
	case ModeExtended:
		return "extended"
	case ModeRepeated:
		return "repeated"
	case ModeMappedOut:
		return "mapped-out"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Status values returned by argument-passing loads and status reads.
// Any value other than StatusFailure/StatusAccepted is a byte count
// still to transfer (0 = complete).
const (
	// StatusFailure is the DMA_FAILURE code (-1): the initiation was
	// rejected or the sequence was broken.
	StatusFailure = ^uint64(0)
	// StatusAccepted (-2) acknowledges a repeated-passing access that
	// kept a sequence valid but did not START a transfer. Making it
	// distinct from both DMA_FAILURE and every possible remaining-byte
	// count lets a careful client detect that its FINAL load merely
	// extended someone else's sequence instead of completing its own —
	// closing a false-success window the paper's "check DMA_FAILURE
	// only" client (Figure 7) leaves open under multiprogramming. See
	// EXPERIMENTS.md ("status integrity").
	StatusAccepted = ^uint64(1)
)

// Control-page register offsets (Figure 1's kernel interface plus the
// kernel-modification hooks of prior work).
const (
	RegSource  = 0x00 // DMA_SOURCE: physical source address
	RegDest    = 0x08 // DMA_DESTINATION: physical destination address
	RegSize    = 0x10 // DMA_SIZE: byte count; writing starts the transfer
	RegStatus  = 0x18 // DMA_STATUS: remaining bytes or StatusFailure
	RegPID     = 0x20 // current process id (the FLASH context-switch hook)
	RegAbort   = 0x28 // any write aborts pending half-initiations (SHRIMP-2 hook)
	RegLastSt  = 0x30 // status of the most recently started transfer
	RegStarted = 0x38 // count of transfers started (diagnostics)
)

// Atomic-operation codes, encoded in the atomic window address.
const (
	AtomicAdd  = 0 // fetch_and_add: returns old, stores old+val
	AtomicSwap = 1 // fetch_and_store: returns old, stores val
	AtomicCAS  = 2 // compare_and_swap: val packs (cmp<<32 | new) on 32-bit cells
)

// Config wires the engine into the machine's physical address map and
// sets its performance parameters.
type Config struct {
	// Mode is the shadow decode protocol the board is built for.
	Mode Mode
	// SeqLen is the repeated-passing variant (3, 4 or 5 accesses); only
	// meaningful in ModeRepeated.
	SeqLen int
	// Contexts is the number of register contexts (the paper suggests
	// 4-8 for the keyed scheme; extended mode uses 1<<CtxBits).
	Contexts int
	// CtxBits is the number of physical address bits carrying the
	// context id in ModeExtended (the paper envisions 1-2).
	CtxBits int
	// NoRegContexts selects the cheaper ModeExtended hardware variant
	// of §3.2: "If the DMA engine has no register contexts, then when
	// it receives pairs of STORE and LOAD instructions, it checks the
	// CONTEXT_ID values of the two physical addresses. If they are
	// different, the DMA operation is not started and an error code is
	// returned by the last LOAD." Initiations interrupted by another
	// context's initiation fail cleanly and must be retried.
	NoRegContexts bool
	// MemBits is the width of a main-memory physical address inside a
	// shadow encoding; 1<<MemBits must cover MemSize and RemoteBase.
	MemBits uint
	// PageSize matches the MMU page size (register-context pages are
	// page-sized so they can be mapped per process).
	PageSize uint64
	// MemSize is the size of local physical memory; transfers are
	// validated against it.
	MemSize uint64

	// ShadowBase etc. place the engine's bus windows.
	ShadowBase  phys.Addr
	CtxPageBase phys.Addr
	ControlBase phys.Addr
	AtomicBase  phys.Addr
	// RingBase, if non-zero, places the descriptor-ring doorbell pages
	// (one page per register context; see ring.go).
	RingBase phys.Addr
	// VABase, if non-zero, places the virtual-address shadow window
	// (one MemBits-sized region per translation context; see va.go).
	// Requires an attached IOMMU (Engine.AttachIOMMU) to initiate.
	VABase phys.Addr

	// RemoteBase, if non-zero, marks decoded destination addresses at or
	// above it as remote: node = (dst-RemoteBase)>>NodeShift, remote
	// offset = dst & (1<<NodeShift - 1). Requires a RemoteHandler.
	RemoteBase phys.Addr
	NodeShift  uint

	// KeyCheckCycles is the extra bus-side latency of validating a key
	// (ModeKeyed shadow stores).
	KeyCheckCycles int64
	// StartupTime is the engine latency between accepting arguments and
	// moving the first byte.
	StartupTime sim.Time
	// Bandwidth is the transfer data rate in bytes/second.
	Bandwidth uint64
	// MaxTransfer caps a single DMA's size (0 = limited only by memory).
	MaxTransfer uint64

	// IOTLBMissTime is the walk-time penalty a virtual transfer pays per
	// IOTLB miss (va.go).
	IOTLBMissTime sim.Time
	// BounceBase/BouncePages place the pinned kernel bounce region the
	// RecoverBounce policy redirects faulting destination pages into.
	BounceBase  phys.Addr
	BouncePages int
}

// numCtx returns the register/translation context count the
// configuration implies (Contexts; 1<<CtxBits in extended mode; at
// least 1).
func (c Config) numCtx() int {
	n := c.Contexts
	if c.Mode == ModeExtended {
		n = 1 << c.CtxBits
	}
	if n < 1 {
		n = 1
	}
	return n
}

// VAWindowSize returns the bus-window size of the virtual-address
// shadow range (0 when VABase is unset).
func (c Config) VAWindowSize() uint64 {
	if c.VABase == 0 {
		return 0
	}
	return uint64(c.numCtx()) << c.MemBits
}

// VAShadow returns the VA-window physical address encoding device
// virtual address va for translation context ctx — the address the OS
// maps into a process that initiates on virtual addresses.
func (c Config) VAShadow(va uint64, ctx int) phys.Addr {
	return c.VABase + phys.Addr(uint64(ctx)<<c.MemBits|va&(uint64(1)<<c.MemBits-1))
}

// ShadowWindowSize returns the bus-window size the shadow range needs.
func (c Config) ShadowWindowSize() uint64 {
	span := uint64(1) << c.MemBits
	if c.Mode == ModeExtended {
		span <<= uint(c.CtxBits)
	}
	return span
}

// AtomicWindowSize returns the bus-window size of the atomic range
// (4 operation slots, future-proofing one spare).
func (c Config) AtomicWindowSize() uint64 { return 4 << c.MemBits }

// CtxWindowSize returns the bus-window size of the register-context
// pages.
func (c Config) CtxWindowSize() uint64 { return uint64(c.Contexts) * c.PageSize }

// RemoteWindowSize returns the bus-window size of the remote-write
// range (0 when the engine is not on a cluster fabric). The window
// spans the rest of the MemBits-encodable space above RemoteBase, so
// the same addresses work both as direct remote-write targets and as
// DMA destinations.
func (c Config) RemoteWindowSize() uint64 {
	if c.RemoteBase == 0 {
		return 0
	}
	return (uint64(1) << c.MemBits) - uint64(c.RemoteBase)
}

// RemoteAddr returns the physical address that names (node, offset) on
// the cluster fabric — usable as a DMA destination or, via the bus, as
// a direct remote-write target.
func (c Config) RemoteAddr(node int, offset phys.Addr) phys.Addr {
	return c.RemoteBase + phys.Addr(uint64(node)<<c.NodeShift) + offset
}

// WindowOf names the engine window a physical address decodes to
// ("shadow", "ctx", "control", "atomic", "ring", "remote", "va") or ""
// for addresses outside the engine. Trace tooling uses it to annotate
// bus traffic. It reads the same window table the engine decodes with,
// so the name is always the window the engine would dispatch to.
func (c Config) WindowOf(addr phys.Addr) string {
	t := c.windows()
	w, _ := t.lookup(addr)
	return windowNames[w]
}

// Shadow returns the shadow physical address encoding pa for register
// context ctx (ctx is ignored outside ModeExtended). The OS uses this
// when it builds shadow page mappings; tests use it to force raw
// accesses.
func (c Config) Shadow(pa phys.Addr, ctx int) phys.Addr {
	a := c.ShadowBase + phys.Addr(uint64(pa)&(1<<c.MemBits-1))
	if c.Mode == ModeExtended {
		a += phys.Addr(uint64(ctx) << c.MemBits)
	}
	return a
}

// AtomicShadow returns the atomic-window physical address encoding
// operation op on pa.
func (c Config) AtomicShadow(pa phys.Addr, op int) phys.Addr {
	return c.AtomicBase + phys.Addr(uint64(op)<<c.MemBits) + phys.Addr(uint64(pa)&(1<<c.MemBits-1))
}

// CtxPage returns the physical base of register context ctx's page.
func (c Config) CtxPage(ctx int) phys.Addr {
	return c.CtxPageBase + phys.Addr(uint64(ctx)*c.PageSize)
}

func (c Config) validate() error {
	if c.MemBits == 0 || c.MemBits > 40 {
		return fmt.Errorf("dma: MemBits %d out of range", c.MemBits)
	}
	if c.MemSize == 0 || c.MemSize > 1<<c.MemBits {
		return fmt.Errorf("dma: MemSize %d not covered by MemBits %d", c.MemSize, c.MemBits)
	}
	if c.PageSize == 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("dma: page size %d not a power of two", c.PageSize)
	}
	if c.Bandwidth == 0 {
		return fmt.Errorf("dma: zero bandwidth")
	}
	switch c.Mode {
	case ModeKeyed:
		if c.Contexts < 1 || c.Contexts > 256 {
			return fmt.Errorf("dma: keyed mode needs 1-256 contexts, have %d", c.Contexts)
		}
	case ModeExtended:
		if c.CtxBits < 1 || c.CtxBits > 8 {
			return fmt.Errorf("dma: extended mode needs 1-8 context bits, have %d", c.CtxBits)
		}
	case ModeRepeated:
		if c.SeqLen != 3 && c.SeqLen != 4 && c.SeqLen != 5 {
			return fmt.Errorf("dma: repeated mode needs SeqLen 3, 4 or 5, have %d", c.SeqLen)
		}
	case ModePaired, ModeMappedOut:
	default:
		return fmt.Errorf("dma: unknown mode %v", c.Mode)
	}
	if c.RemoteBase != 0 {
		if uint64(c.RemoteBase) >= 1<<c.MemBits {
			return fmt.Errorf("dma: RemoteBase %v not encodable in %d bits", c.RemoteBase, c.MemBits)
		}
		if c.NodeShift == 0 {
			return fmt.Errorf("dma: RemoteBase set but NodeShift is zero")
		}
	}
	if c.BouncePages > 0 {
		if c.VABase == 0 {
			return fmt.Errorf("dma: bounce region configured without a VA window")
		}
		if uint64(c.BounceBase)%c.PageSize != 0 {
			return fmt.Errorf("dma: BounceBase %v not page-aligned", c.BounceBase)
		}
		if uint64(c.BounceBase)+uint64(c.BouncePages)*c.PageSize > c.MemSize {
			return fmt.Errorf("dma: bounce region %v+%d pages exceeds local memory", c.BounceBase, c.BouncePages)
		}
	}
	return nil
}

// Counters counts engine activity: the engine's live obs cells,
// registered with the machine's registry at construction and captured
// by value in snapshots so the FSM/transfer tallies rewind with the
// world. The VA* cells count the virtual-address path (va.go); they
// are registered separately (RegisterVAMetrics) so worlds without an
// IOMMU keep their registry dump byte-identical.
type Counters struct {
	ShadowStores    obs.Counter
	ShadowLoads     obs.Counter
	KeyMismatches   obs.Counter
	SeqResets       obs.Counter // repeated-mode FSM resets
	Started         obs.Counter // transfers accepted
	Rejected        obs.Counter // initiations refused (validation, broken sequence)
	Completed       obs.Counter
	BytesMoved      obs.Counter
	AtomicOps       obs.Counter
	RemoteStarted   obs.Counter
	AbortedPending  obs.Counter // half-initiations discarded (SHRIMP-2/FLASH hooks)
	RingDoorbells   obs.Counter // doorbell stores that kicked a walk
	RingPosted      obs.Counter // descriptors consumed by walks
	RingCompletions obs.Counter // completion records written back

	VAStores  obs.Counter // VA-window stores
	VALoads   obs.Counter // VA-window loads
	VAStarted obs.Counter // virtual transfers accepted
	VAFaults  obs.Counter // mid-transfer translation faults
	VAStalls  obs.Counter // faults handled by stalling (parked or resolved inline)
	VABounced obs.Counter // destination pages redirected into the bounce region
	VAPins    obs.Counter // transfers that pre-pinned their extents
}

// RemoteHandler delivers remote-write DMA payloads to another node. The
// net package implements it with link latency/bandwidth modelling.
type RemoteHandler interface {
	// Deliver ships data to (node, addr); at is the simulated time the
	// payload leaves this engine. Deliver must NOT retain data: the
	// engine reuses the backing buffer for the next payload as soon as
	// the call returns (the fabric copies into its own pooled delivery
	// records), which keeps the per-message send path allocation-free.
	Deliver(node int, addr phys.Addr, data []byte, at sim.Time) error
}

// RemoteAtomicHandler is implemented by fabrics that support atomic
// operations on another node's memory (Telegraphos-style NOW shared
// memory). The call is synchronous: the fabric performs the operation
// on the remote cell and accounts the round-trip time on the shared
// clock before returning — the issuing CPU stalls for it, like any
// locked transaction.
type RemoteAtomicHandler interface {
	RMWRemote(node int, addr phys.Addr, op int, size phys.AccessSize, val uint64) (uint64, error)
}

// regContext is one register context: a private argument slot so that a
// context switch between a process's argument stores cannot mix its
// arguments with another process's (§3.1).
type regContext struct {
	src, dst         phys.Addr
	size             uint64
	haveSrc, haveDst bool
	haveSize         bool
	cur              *Transfer
	// virt marks the collected arguments as device VAs (set when they
	// arrived through the VA window); vctx is their translation context.
	virt bool
	vctx int
}

// pendingPair is the single global half-initiation slot of ModePaired.
type pendingPair struct {
	dst   phys.Addr
	size  uint64
	pid   int
	valid bool
	// virt/vctx: see regContext.
	virt bool
	vctx int
}

// Engine is the DMA engine device.
type Engine struct {
	cfg    Config
	events *sim.EventQueue
	mem    *phys.Memory

	wins    windowTable // address decode, built from cfg at New
	ctxs    []regContext
	keys    []uint64 // per-context keys (0 = unassigned), ModeKeyed
	pending pendingPair
	pidTrk  bool // FLASH-style PID tracking on the pending slot
	curPID  int

	// decodeVer moves on every write to the decode state (see
	// DecodeVersion); a status read leaves it alone.
	decodeVer uint64

	seq seqFSM // ModeRepeated

	pageMap map[phys.Addr]phys.Addr // ModeMappedOut: src page -> dst base

	// Kernel-programmed registers (control page).
	regSrc, regDst uint64
	last           *Transfer
	xfer           transferEngine
	audit          audit
	onAccept       func(Transfer)

	remote   RemoteHandler
	reserver BusReserver
	ctr      Counters

	// rings holds the per-context descriptor rings (ring.go); the slice
	// always matches ctxs in length, usable only when RingBase is set.
	rings []ringState

	// Virtual-address DMA state (va.go): the attached translator and
	// fault resolver, transfers parked on a fault, the bounce-frame free
	// list, the active recovery policy, and the transient window tag
	// (vaAcc/vaCtx) set around a VA-window access so the shared decode
	// FSMs know the collected argument is virtual.
	iommu      Translator
	resolver   FaultResolver
	vaParked   []*vaWalker
	bounceFree []int32
	vaCtx      int
	policy     RecoveryPolicy
	vaAcc      bool

	// Allocation control for the per-message hot path. wordBuf carries
	// single-word remote writes; freeT, freeBuf, freeVW and freeFx pool
	// Transfer records, remote payload buffers, VA walkers and bounce
	// fix-ups.
	wordBuf [8]byte
	freeT   []*Transfer
	freeBuf [][]byte
	freeVW  []*vaWalker
	freeFx  []*vaFixup
}

// audit is the engine's streaming self-check: the per-record checks run
// as each transfer is accepted and as its record retires (see drop),
// and the first violation is latched for CheckInvariants. retired sums
// the bytes of delivered records already back in the pool.
type audit struct {
	lastStart sim.Time
	retired   uint64
	err       error
}

// violate latches the first audit violation.
func (e *Engine) violate(err error) {
	if e.audit.err == nil {
		e.audit.err = err
	}
}

// auditRecord checks a delivered record's bounds against the channel.
func (e *Engine) auditRecord(t *Transfer) error {
	switch {
	case t.End < t.Start:
		return fmt.Errorf("dma: transfer %v->%v ends (%v) before it starts (%v)", t.Src, t.Dst, t.End, t.Start)
	case t.End > e.xfer.busyUntil:
		return fmt.Errorf("dma: transfer %v->%v ends (%v) after busyUntil (%v)", t.Src, t.Dst, t.End, e.xfer.busyUntil)
	case !t.delivered:
		return fmt.Errorf("dma: transfer %v->%v retired before delivery", t.Src, t.Dst)
	}
	return nil
}

// BusReserver lets the engine report the windows in which it masters
// the bus (DMA cycle stealing); implemented by bus.Bus.
type BusReserver interface {
	ReserveDMA(start, end sim.Time)
}

// New builds an engine. mem is the node's local memory the engine
// masters transfers on; events is the queue every delivery is
// scheduled on.
func New(cfg Config, events *sim.EventQueue, mem *phys.Memory) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if events == nil {
		return nil, fmt.Errorf("dma: engine needs an event queue")
	}
	nCtx := cfg.numCtx()
	e := &Engine{
		cfg:     cfg,
		wins:    cfg.windows(),
		events:  events,
		mem:     mem,
		ctxs:    make([]regContext, nCtx),
		keys:    make([]uint64, nCtx),
		rings:   make([]ringState, nCtx),
		pageMap: make(map[phys.Addr]phys.Addr),
	}
	// Bounce frames pop from the tail, so descending order hands them
	// out 0, 1, 2, ... deterministically.
	for i := int32(cfg.BouncePages) - 1; i >= 0; i-- {
		e.bounceFree = append(e.bounceFree, i)
	}
	e.seq.init(cfg.SeqLen)
	return e, nil
}

// Name implements bus.Device.
func (e *Engine) Name() string { return "telegraphos-nic" }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Counters returns the activity counters.
func (e *Engine) Counters() Counters { return e.ctr }

// RegisterMetrics publishes the engine's counters in a registry.
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("dma.shadow_stores", &e.ctr.ShadowStores)
	r.RegisterCounter("dma.shadow_loads", &e.ctr.ShadowLoads)
	r.RegisterCounter("dma.key_mismatches", &e.ctr.KeyMismatches)
	r.RegisterCounter("dma.seq_resets", &e.ctr.SeqResets)
	r.RegisterCounter("dma.started", &e.ctr.Started)
	r.RegisterCounter("dma.rejected", &e.ctr.Rejected)
	r.RegisterCounter("dma.completed", &e.ctr.Completed)
	r.RegisterCounter("dma.bytes_moved", &e.ctr.BytesMoved)
	r.RegisterCounter("dma.atomic_ops", &e.ctr.AtomicOps)
	r.RegisterCounter("dma.remote_started", &e.ctr.RemoteStarted)
	r.RegisterCounter("dma.aborted_pending", &e.ctr.AbortedPending)
	r.RegisterCounter("dma.ring_doorbells", &e.ctr.RingDoorbells)
	r.RegisterCounter("dma.ring_posted", &e.ctr.RingPosted)
	r.RegisterCounter("dma.ring_completions", &e.ctr.RingCompletions)
}

// NumContexts returns the number of register contexts.
func (e *Engine) NumContexts() int { return len(e.ctxs) }

// SetKey installs the protection key for a register context (kernel
// setup-time operation, ModeKeyed). Key 0 disables the context.
func (e *Engine) SetKey(ctx int, key uint64) error {
	if ctx < 0 || ctx >= len(e.keys) {
		return fmt.Errorf("dma: context %d out of range", ctx)
	}
	e.keys[ctx] = key
	return nil
}

// SetPIDTracking enables FLASH-style tracking: the engine discards a
// pending half-initiation when the current PID changes (requires the
// kernel's context-switch handler to write RegPID — the kernel
// modification FLASH needs).
func (e *Engine) SetPIDTracking(on bool) { e.pidTrk = on }

// MapOut installs a SHRIMP-1 page mapping: DMA from srcPage always
// targets dst (same offset). Kernel setup-time operation.
func (e *Engine) MapOut(srcPage, dst phys.Addr) error {
	if uint64(srcPage)%e.cfg.PageSize != 0 {
		return fmt.Errorf("dma: MapOut source %v not page-aligned", srcPage)
	}
	e.pageMap[srcPage] = dst
	return nil
}

// SetRemoteHandler attaches the cluster fabric.
func (e *Engine) SetRemoteHandler(h RemoteHandler) { e.remote = h }

// SetAcceptHook subscribes fn to every accepted transfer, called in
// start order with the record as accepted (a virtual transfer's End is
// still nominal). The attack studies use it as the ground truth of what
// actually moved. The hook is wiring, not state: snapshots neither
// capture nor restore it. nil unsubscribes.
func (e *Engine) SetAcceptHook(fn func(Transfer)) { e.onAccept = fn }

// SetBusReserver attaches the bus the engine steals cycles from while
// mastering transfers.
func (e *Engine) SetBusReserver(r BusReserver) { e.reserver = r }

// AbortPending discards any half-initiated user-level DMA. This is the
// SHRIMP-2 kernel hook: "the operating system must invalidate any
// partially initiated user-level DMA transfer on every context switch".
func (e *Engine) AbortPending() {
	if e.pending.valid {
		e.pending.valid = false
		e.ctr.AbortedPending.Inc()
		e.decodeVer++
	}
	if e.seq.idx != 0 {
		e.seq.reset()
		e.ctr.SeqResets.Inc()
		e.decodeVer++
	}
}

// SetCurrentPID records the running process (the FLASH kernel hook
// writes this at every context switch; also reachable via RegPID).
func (e *Engine) SetCurrentPID(pid int) {
	if e.pidTrk && e.pending.valid && e.pending.pid != pid {
		e.pending.valid = false
		e.ctr.AbortedPending.Inc()
		e.decodeVer++
	}
	if e.curPID != pid {
		e.curPID = pid
		e.decodeVer++
	}
}

// DecodeVersion returns the decode-state version: it moves on every
// write to the state a device access decodes against, the part of
// StateHash outside the virtual-address state (register-context
// arguments, the pending pair, the repeated-passing FSM, the current
// PID, ring geometry and progress), and never on a status read. Two
// reads that agree bracket a stretch in which that state did not
// change; a bump where nothing changed only makes a caller's
// comparison refuse. It is not part of a snapshot; a Restore moves it
// forward.
func (e *Engine) DecodeVersion() uint64 { return e.decodeVer }

// LastTransfer returns the most recently started transfer, if any. The
// record is pooled: read it before the engine starts another transfer,
// and keep none of it.
func (e *Engine) LastTransfer() *Transfer { return e.last }

// ContextTransfer returns the most recent transfer started through
// register context ctx (nil if none), pooled like LastTransfer's. The
// kernel's blocking-wait syscall uses it to find what a process is
// waiting on.
func (e *Engine) ContextTransfer(ctx int) *Transfer {
	if ctx < 0 || ctx >= len(e.ctxs) {
		return nil
	}
	return e.ctxs[ctx].cur
}

// CheckInvariants validates the engine's internal consistency; soak
// tests call it after a run (with events settled). It returns the first
// violation the streaming audit latched, else the first one found among
// the live records: the counters agree, and the bytes of every delivered
// record — retired or still e.last or a context's cur — sum to
// BytesMoved.
func (e *Engine) CheckInvariants(now sim.Time) error {
	if e.audit.err != nil {
		return e.audit.err
	}
	if e.ctr.Completed.Value() > e.ctr.Started.Value() {
		return fmt.Errorf("dma: completed %d > started %d", e.ctr.Completed.Value(), e.ctr.Started.Value())
	}
	bytes := e.audit.retired
	for i := -1; i < len(e.ctxs); i++ {
		t := e.last
		if i >= 0 {
			if t = e.ctxs[i].cur; t == e.last {
				continue
			}
		}
		if t == nil || t.Failed {
			continue
		}
		if !t.delivered {
			if now >= t.End && t.vw == nil {
				return fmt.Errorf("dma: transfer %v->%v past End (%v <= %v) but not delivered", t.Src, t.Dst, t.End, now)
			}
			continue
		}
		if err := e.auditRecord(t); err != nil {
			return err
		}
		bytes += t.Size
	}
	if e.ctr.BytesMoved.Value() != bytes {
		return fmt.Errorf("dma: BytesMoved %d vs %d summed from delivered transfers", e.ctr.BytesMoved.Value(), bytes)
	}
	return nil
}

// window classification -----------------------------------------------

// window is an engine bus window kind. The constants' order is the
// decode priority (see windowTable).
type window uint8

const (
	winNone window = iota
	winShadow
	winCtx
	winControl
	winAtomic
	winRing
	winRemote
	winVA
)

var windowNames = [...]string{
	winNone:    "",
	winShadow:  "shadow",
	winCtx:     "ctx",
	winControl: "control",
	winAtomic:  "atomic",
	winRing:    "ring",
	winRemote:  "remote",
	winVA:      "va",
}

// winRange is one bus window: addresses in [base, base+size) decode to
// it at offset addr-base. A window the configuration leaves out has
// size 0 and matches nothing.
type winRange struct{ base, size uint64 }

// windowTable is the engine's address decode: entry k-1 is window kind
// k, and the kinds' declaration order is the decode priority, so the
// first window holding an address claims it.
type windowTable [winVA]winRange

// windows builds the decode table the configuration implies. New
// computes it once into the Engine, so the per-access decode neither
// copies the Config nor recomputes window sizes.
func (c Config) windows() windowTable {
	var ctx uint64
	if c.Contexts > 0 {
		ctx = c.CtxWindowSize()
	}
	return windowTable{
		winShadow - 1:  {uint64(c.ShadowBase), c.ShadowWindowSize()},
		winCtx - 1:     {uint64(c.CtxPageBase), ctx},
		winControl - 1: {uint64(c.ControlBase), c.PageSize},
		winAtomic - 1:  {uint64(c.AtomicBase), c.AtomicWindowSize()},
		winRing - 1:    {uint64(c.RingBase), c.RingWindowSize()},
		winRemote - 1:  {uint64(c.RemoteBase), c.RemoteWindowSize()},
		winVA - 1:      {uint64(c.VABase), c.VAWindowSize()},
	}
}

// lookup returns the window holding addr and the offset within it.
func (t *windowTable) lookup(addr phys.Addr) (window, uint64) {
	for i := range t {
		w := &t[i]
		if off := uint64(addr) - w.base; uint64(addr) >= w.base && off < w.size {
			return window(i + 1), off
		}
	}
	return winNone, 0
}

func (e *Engine) classify(addr phys.Addr) (window, uint64) { return e.wins.lookup(addr) }

// Load implements bus.Device.
func (e *Engine) Load(now sim.Time, addr phys.Addr, size phys.AccessSize) (uint64, int64, error) {
	switch win, off := e.classify(addr); win {
	case winShadow:
		e.ctr.ShadowLoads.Inc()
		return e.shadowLoad(now, off)
	case winVA:
		return e.vaLoad(now, off)
	case winCtx:
		return e.ctxLoad(now, off)
	case winControl:
		return e.controlLoad(now, off)
	case winRing:
		return e.ringLoad(off)
	case winAtomic:
		// Plain loads in the atomic window read memory through the
		// engine (useful for polling shared cells without local copies).
		pa := phys.Addr(off & (1<<e.cfg.MemBits - 1))
		v, err := e.mem.Read(pa, size)
		return v, 0, err
	case winRemote:
		// Telegraphos-style remote WRITES are supported; remote reads
		// would need a round trip the interface does not implement.
		return 0, 0, fmt.Errorf("dma: remote reads are not supported (load at %v)", addr)
	default:
		return 0, 0, fmt.Errorf("dma: load at %v outside engine windows", addr)
	}
}

// Store implements bus.Device.
func (e *Engine) Store(now sim.Time, addr phys.Addr, size phys.AccessSize, val uint64) (int64, error) {
	switch win, off := e.classify(addr); win {
	case winShadow:
		e.ctr.ShadowStores.Inc()
		return e.shadowStore(now, off, val)
	case winVA:
		return e.vaStore(now, off, val)
	case winCtx:
		return e.ctxStore(now, off, val)
	case winControl:
		return e.controlStore(now, off, val)
	case winRing:
		return e.ringStore(now, off, val)
	case winAtomic:
		return 0, fmt.Errorf("dma: plain store at %v in atomic window (use RMW)", addr)
	case winRemote:
		// A single-word remote write (the Telegraphos doorbell/flag
		// primitive): forwarded to the fabric as a tiny payload.
		if e.remote == nil {
			return 0, fmt.Errorf("dma: remote write at %v with no fabric attached", addr)
		}
		node := int(off >> e.cfg.NodeShift)
		raddr := phys.Addr(off & (1<<e.cfg.NodeShift - 1))
		// Carry the word in the engine-owned scratch buffer: Deliver
		// must not retain it (see RemoteHandler), so a doorbell write
		// costs no allocation.
		buf := e.wordBuf[:size]
		for i := range buf {
			buf[i] = byte(val >> (8 * i))
		}
		e.ctr.RemoteStarted.Inc()
		return 0, e.remote.Deliver(node, raddr, buf, now)
	default:
		return 0, fmt.Errorf("dma: store at %v outside engine windows", addr)
	}
}

// RMW implements bus.RMWDevice: atomic-window operations (§3.5) and the
// ModeMappedOut compare-and-exchange initiation (§2.4).
func (e *Engine) RMW(now sim.Time, addr phys.Addr, size phys.AccessSize, val uint64) (uint64, int64, error) {
	switch win, off := e.classify(addr); win {
	case winAtomic:
		return e.atomicOp(off, size, val)
	case winShadow:
		if e.cfg.Mode == ModeMappedOut {
			return e.mappedOutInitiate(now, off, val)
		}
		return 0, 0, fmt.Errorf("dma: RMW in shadow window unsupported in %v mode", e.cfg.Mode)
	default:
		return 0, 0, fmt.Errorf("dma: RMW at %v outside atomic window", addr)
	}
}

// decodeShadow splits a shadow-window offset into (ctx, memory paddr).
func (e *Engine) decodeShadow(off uint64) (int, phys.Addr) {
	mask := uint64(1)<<e.cfg.MemBits - 1
	ctx := 0
	if e.cfg.Mode == ModeExtended {
		ctx = int(off >> e.cfg.MemBits)
	}
	return ctx, phys.Addr(off & mask)
}
