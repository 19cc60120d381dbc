package kernel

// Descriptor-ring setup and register-context scheduling. Both are
// setup-time services in the paper's sense — ordinary kernel interfaces,
// no kernel modification:
//
//   - SetupRing / RegisterRingBuffer are the mmap-and-register step of
//     the batched path: the kernel pins the process's ring page and
//     buffer frames with the engine (RDMA memory registration) and maps
//     the per-context doorbell page into exactly one address space.
//   - AcquireContext arbitrates the engine's 4-8 register contexts when
//     dozens-hundreds of processes want one (§3.2's "if every context is
//     taken..."), under three policies: FIFO wait, LRU key-stealing
//     revocation, and cooperative yield (acquire/release per batch).
//
// Key-stealing is only sound in keyed mode: revocation zeroes the
// victim's key, so its stale doorbells and shadow stores are silently
// dropped by the engine's key check rather than kicking transfers on a
// context it no longer owns.

import (
	"fmt"

	"uldma/internal/dma"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// RingDoorbellVA is where a process's ring doorbell page is mapped.
const RingDoorbellVA vm.VAddr = 0xD000_0000

// CtxPolicy selects how AcquireContext arbitrates register contexts
// under oversubscription.
type CtxPolicy int

const (
	// CtxFIFO queues the requester until a holder exits or releases;
	// wakeups arrive in request order.
	CtxFIFO CtxPolicy = iota
	// CtxSteal revokes the least-recently-used holder's context (key
	// zeroed, ring torn down) and grants it to the requester.
	CtxSteal
	// CtxYield relies on holders releasing after every batch; the
	// acquire side waits FIFO like CtxFIFO, but under the cooperative
	// discipline a context frees at batch granularity.
	CtxYield
)

// String returns the policy's registry-stable name.
func (p CtxPolicy) String() string {
	switch p {
	case CtxFIFO:
		return "fifo"
	case CtxSteal:
		return "steal"
	case CtxYield:
		return "yield"
	}
	return "unknown"
}

// grantContext hands ctx to p: ownership tables, a fresh key and the
// register-context page mapping in keyed mode, and the LRU touch.
func (k *Kernel) grantContext(p *proc.Process, ctx int) error {
	k.ctxOwner[ctx] = p.PID()
	k.procCtx[p.PID()] = ctx
	k.touchCtx(ctx)
	if k.engine.Config().Mode == dma.ModeKeyed {
		key := k.rng.Uint64()>>dma.KeyShift | 1 // non-zero ~56-bit key
		k.keys[ctx] = key
		if err := k.engine.SetKey(ctx, key); err != nil {
			return err
		}
		// The register-context page is mapped into this process only:
		// possession of the mapping is the access right.
		ctxPA := k.engine.Config().CtxPage(ctx)
		if err := p.AddressSpace().Map(CtxPageVA, ctxPA, vm.Read|vm.Write); err != nil {
			return err
		}
	}
	return nil
}

// revokeContext strips ctx from its owner: ownership cleared, key
// zeroed (keyed mode — stale stores drop silently), ring torn down.
func (k *Kernel) revokeContext(ctx int) {
	if pid := k.ctxOwner[ctx]; pid != 0 {
		delete(k.procCtx, pid)
	}
	k.ctxOwner[ctx] = 0
	k.keys[ctx] = 0
	if k.engine.Config().Mode == dma.ModeKeyed {
		k.engine.SetKey(ctx, 0)
	}
	k.engine.TeardownRing(ctx)
}

// touchCtx records a use of ctx for the LRU steal policy.
func (k *Kernel) touchCtx(ctx int) {
	k.useTick++
	k.ctxUse[ctx] = k.useTick
}

// TouchContext marks p's context as recently used (clients call it per
// batch so the steal policy evicts genuinely idle holders).
func (k *Kernel) TouchContext(p *proc.Process) {
	if c, ok := k.procCtx[p.PID()]; ok {
		k.touchCtx(c)
	}
}

// AcquireContext tries to get a register context for p under the given
// policy. It returns (ctx, true) on success. Under CtxFIFO/CtxYield
// with every context taken it queues p, blocks it, and returns
// (0, false): the caller retries after its next instruction boundary
// (spurious wakeups are allowed, lost wakeups are not — the release
// path always wakes the queue head). CtxSteal always succeeds by
// revoking the least-recently-used holder.
func (k *Kernel) AcquireContext(p *proc.Process, policy CtxPolicy) (int, bool, error) {
	if c, ok := k.procCtx[p.PID()]; ok {
		k.touchCtx(c)
		return c, true, nil
	}
	for ctx := range k.ctxOwner {
		if k.ctxOwner[ctx] != 0 {
			continue
		}
		if err := k.grantContext(p, ctx); err != nil {
			return 0, false, err
		}
		return ctx, true, nil
	}
	if policy == CtxSteal {
		victim := 0
		for ctx := 1; ctx < len(k.ctxUse); ctx++ {
			if k.ctxUse[ctx] < k.ctxUse[victim] {
				victim = ctx
			}
		}
		k.ctr.CtxSteals.Inc()
		k.revokeContext(victim)
		if err := k.grantContext(p, victim); err != nil {
			return 0, false, err
		}
		return victim, true, nil
	}
	// A blocked process only suspends at its next instruction boundary,
	// so its retry loop can re-enter here before ever sleeping — queue
	// it once, but re-arm the block every time.
	queued := false
	for _, w := range k.ctxWaiters {
		if w == p {
			queued = true
			break
		}
	}
	if !queued {
		k.ctxWaiters = append(k.ctxWaiters, p)
		k.ctr.CtxWaits.Inc()
	}
	p.BlockUntil(sim.Never)
	return 0, false, nil
}

// wakeCtxWaiter wakes the head of the context wait queue (after
// interrupt-and-reschedule overhead), if any. Entries whose process has
// since finished or obtained a context are discarded, not woken — a
// wakeup spent on a stale entry would strand the live waiters behind it
// forever.
func (k *Kernel) wakeCtxWaiter() {
	for len(k.ctxWaiters) > 0 {
		w := k.ctxWaiters[0]
		copy(k.ctxWaiters, k.ctxWaiters[1:])
		k.ctxWaiters = k.ctxWaiters[:len(k.ctxWaiters)-1]
		_, holds := k.procCtx[w.PID()]
		if w.State() == proc.Done || holds {
			continue
		}
		wake := k.cpu.Clock().Now() + k.cpu.Config().Freq.Cycles(InterruptWakeupCycles)
		w.Wake(wake)
		return
	}
}

// SetupRing installs a descriptor ring for p in the page at ringVA
// (which p must have mapped read+write), assigns a register context if
// p holds none, and maps the context's doorbell page at RingDoorbellVA.
// Returns the context id. One doorbell store then kicks up to depth
// pending descriptors (dma ring layout: 64-byte slots).
func (k *Kernel) SetupRing(p *proc.Process, ringVA vm.VAddr, depth uint64) (int, error) {
	ctx, ok := k.procCtx[p.PID()]
	if !ok {
		var err error
		if ctx, _, err = k.AssignContext(p); err != nil {
			return 0, err
		}
	}
	as := p.AddressSpace()
	base := as.PageBase(ringVA)
	pte, found := as.Lookup(base)
	if !found || !pte.Prot.Can(vm.Read|vm.Write) {
		return 0, fmt.Errorf("kernel: SetupRing: %v not mapped read+write", ringVA)
	}
	if err := k.engine.SetupRing(ctx, pte.Frame, depth); err != nil {
		return 0, err
	}
	// The doorbell page is mapped into this process only; like the
	// register-context page, possession of the mapping is the right.
	db := k.engine.Config().RingPage(ctx)
	if err := as.Map(RingDoorbellVA, db, vm.Read|vm.Write); err != nil {
		return 0, err
	}
	k.touchCtx(ctx)
	return ctx, nil
}

// RegisterRingBuffer registers pages of p's buffer at va as extents
// descriptors on p's ring may reference, and returns their physical
// frames (the addresses the client writes into descriptor Src/Dst
// slots). Remote-mapped pages are passed through unregistered: a remote
// destination is validated by the remote window itself, exactly like a
// shadow-initiated remote transfer.
func (k *Kernel) RegisterRingBuffer(p *proc.Process, va vm.VAddr, pages int) ([]phys.Addr, error) {
	ctx, ok := k.procCtx[p.PID()]
	if !ok {
		return nil, fmt.Errorf("kernel: RegisterRingBuffer: process holds no register context")
	}
	as := p.AddressSpace()
	ps := k.PageSize()
	cfg := k.engine.Config()
	frames := make([]phys.Addr, 0, pages)
	for i := 0; i < pages; i++ {
		pva := as.PageBase(va + vm.VAddr(uint64(i)*ps))
		pte, found := as.Lookup(pva)
		if !found {
			return nil, fmt.Errorf("kernel: RegisterRingBuffer: %v not mapped", pva)
		}
		if cfg.RemoteBase != 0 && pte.Frame >= cfg.RemoteBase {
			frames = append(frames, pte.Frame)
			continue
		}
		if !pte.Prot.Can(vm.Read | vm.Write) {
			return nil, fmt.Errorf("kernel: RegisterRingBuffer: %v not read+write", pva)
		}
		if err := k.engine.RingAllow(ctx, pte.Frame, ps); err != nil {
			return nil, err
		}
		frames = append(frames, pte.Frame)
	}
	return frames, nil
}
