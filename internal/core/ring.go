package userdma

// The batched-initiation client library: a user-level view of the
// engine's chained-descriptor rings (internal/dma/ring.go). Where every
// Method in this package pays one full initiation sequence per
// transfer, a RingHandle fills N descriptors with ordinary cached
// stores and pays ONE uncached doorbell store (plus one write-buffer
// flush) for the whole batch — the production-NIC amortization the
// ringdepth experiment quantifies.
//
// Setup mirrors Method.Attach: the kernel allocates the descriptor
// page, assigns a register context, registers the process's buffer
// frames with the engine (RDMA-style memory registration) and maps the
// per-context doorbell page at kernel.RingDoorbellVA. Arm performs
// that kernel work and is callable again after the context was revoked
// (the key-stealing policy), which is how oversubscribed processes
// re-attach mid-run.

import (
	"fmt"

	"uldma/internal/dma"
	"uldma/internal/kernel"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

// RingHandle is one process's attachment to the batched descriptor-ring
// path.
type RingHandle struct {
	m      *machine.Machine
	p      *proc.Process
	ctx    int
	key    uint64
	depth  uint64
	ringVA vm.VAddr
	bufs   []ringBuf
}

// ringBuf is one buffer region the handle (re-)registers at Arm time.
type ringBuf struct {
	va     vm.VAddr
	pages  int
	frames []phys.Addr
}

// NewRing allocates the descriptor page at ringVA in p's address space
// and returns an un-armed handle for a ring of the given depth. Call
// AddBuffer for each data region, then Arm before the first Post.
func NewRing(m *machine.Machine, p *proc.Process, ringVA vm.VAddr, depth uint64) (*RingHandle, error) {
	if depth < 1 || depth > m.Engine.Config().RingMaxDepth() {
		return nil, fmt.Errorf("userdma: ring depth %d out of range 1..%d", depth, m.Engine.Config().RingMaxDepth())
	}
	if _, err := m.Kernel.AllocPage(p.AddressSpace(), ringVA, vm.Read|vm.Write); err != nil {
		return nil, err
	}
	return &RingHandle{m: m, p: p, ctx: -1, depth: depth, ringVA: ringVA}, nil
}

// AddBuffer allocates pages of data buffer at va and records the region
// for registration at Arm time. Returns the buffer's index for Frames.
func (h *RingHandle) AddBuffer(va vm.VAddr, pages int) (int, error) {
	ps := vm.VAddr(h.m.Cfg.PageSize)
	for i := 0; i < pages; i++ {
		if _, err := h.m.Kernel.AllocPage(h.p.AddressSpace(), va+vm.VAddr(i)*ps, vm.Read|vm.Write); err != nil {
			return 0, err
		}
	}
	h.bufs = append(h.bufs, ringBuf{va: va, pages: pages})
	return len(h.bufs) - 1, nil
}

// Arm (re)binds the ring to a register context: assign a context (the
// caller arbitrates contention via Kernel.AcquireContext first when
// policies matter), install the ring, register every buffer, map the
// doorbell page. Idempotent while the context is held; callable again
// after revocation.
func (h *RingHandle) Arm() error {
	ctx, key, err := h.m.Kernel.AssignContext(h.p)
	if err != nil {
		return err
	}
	if _, err := h.m.Kernel.SetupRing(h.p, h.ringVA, h.depth); err != nil {
		return err
	}
	for i := range h.bufs {
		frames, err := h.m.Kernel.RegisterRingBuffer(h.p, h.bufs[i].va, h.bufs[i].pages)
		if err != nil {
			return err
		}
		h.bufs[i].frames = frames
	}
	h.ctx, h.key = ctx, key
	return nil
}

// Armed reports whether the handle still holds its context with the
// ring installed — false after the kernel revoked the context (steal
// policy) or the process released it (yield policy).
func (h *RingHandle) Armed() bool {
	ctx, ok := h.m.Kernel.ContextOf(h.p)
	if !ok || ctx != h.ctx {
		return false
	}
	_, depth, _, _ := h.m.Engine.RingState(ctx)
	return depth == h.depth
}

// Frames returns buffer buf's physical frames (valid after Arm) — the
// addresses descriptors name in their Src/Dst slots.
func (h *RingHandle) Frames(buf int) []phys.Addr { return h.bufs[buf].frames }

// slotVA returns the virtual address of descriptor slot's base.
func (h *RingHandle) slotVA(slot uint64) vm.VAddr {
	return h.ringVA + vm.VAddr(slot*dma.DescBytes)
}

// Post fills descriptor slot with three ordinary cached stores — the
// cheap, per-transfer part of batched initiation.
func (h *RingHandle) Post(c *proc.Context, slot uint64, src, dst phys.Addr, size uint64) error {
	va := h.slotVA(slot)
	if err := c.Store(va+dma.DescSrc, phys.Size64, uint64(src)); err != nil {
		return err
	}
	if err := c.Store(va+dma.DescDst, phys.Size64, uint64(dst)); err != nil {
		return err
	}
	return c.Store(va+dma.DescSize, phys.Size64, size)
}

// Doorbell flushes the write buffer (so every descriptor store has
// landed — the §3.4 barrier) and rings: one uncached store kicks count
// pending descriptors. In keyed mode the word carries the context key,
// checked once for the whole batch.
func (h *RingHandle) Doorbell(c *proc.Context, count uint64) error {
	if err := c.MB(); err != nil {
		return err
	}
	word := count
	if h.m.Engine.Config().Mode == dma.ModeKeyed {
		word = h.key<<dma.KeyShift | count
	}
	return c.Store(kernel.RingDoorbellVA, phys.Size64, word)
}

// InFlight reads the ring's in-flight descriptor count with one
// uncached load of the doorbell page: "has my whole batch completed?".
func (h *RingHandle) InFlight(c *proc.Context) (uint64, error) {
	// Push any still-posted doorbell store out first: a load that hits
	// the posted store in the write buffer is forwarded the store's
	// value (the §3 collapse hazard) instead of reaching the engine.
	if err := c.MB(); err != nil {
		return 0, err
	}
	return c.Load(kernel.RingDoorbellVA, phys.Size64)
}

// WaitDrain polls InFlight until the ring is empty.
func (h *RingHandle) WaitDrain(c *proc.Context, maxPolls int) error {
	for i := 0; i < maxPolls; i++ {
		n, err := h.InFlight(c)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		c.Spin(200) // back off before re-polling
	}
	return fmt.Errorf("userdma: ring still draining after %d polls", maxPolls)
}
