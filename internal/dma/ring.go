package dma

// Chained-descriptor rings with doorbell batching — the batching lever
// production NICs use to amortize per-transfer initiation cost (compare
// the paper's one full shadow-store sequence per transfer). A process
// lays out a ring of 64-byte transfer descriptors in its own memory,
// fills N of them with ordinary cached stores, and kicks the engine
// with ONE uncached doorbell store. The engine walks the chain,
// validates every descriptor against the buffers the kernel registered
// for that ring, starts the transfers back to back on the single
// channel, and writes a completion record (status + simulated
// timestamp) back into each descriptor slot as its transfer finishes.
//
// Protection mirrors the paper's register-context story: the doorbell
// page is per-context and mapped into exactly one process (keyed mode
// additionally carries the context key in the doorbell word, checked
// once per BATCH instead of once per transfer), and descriptors may
// only name physical extents the kernel registered — a forged address
// fails validation and gets a DMA_FAILURE completion record, it never
// moves data. This is RDMA memory-registration semantics grafted onto
// the Telegraphos engine.
//
// All ring state (geometry, head cursor, in-flight count, registered
// extents) snapshots and restores with the engine and is folded into
// StateHash, so rings rewind with the world like everything else.

import (
	"fmt"

	"uldma/internal/phys"
	"uldma/internal/sim"
)

// Descriptor slot layout. Each slot is DescBytes long; the client
// writes Src/Dst/Size with cached stores, the engine writes Status and
// Stamp when the transfer completes (or immediately on rejection).
const (
	DescSrc    = 0x00 // physical source address
	DescDst    = 0x08 // physical destination (local or remote window)
	DescSize   = 0x10 // byte count
	DescStatus = 0x18 // completion status: 0 ok, StatusFailure rejected
	DescStamp  = 0x20 // simulated completion timestamp (picoseconds)
	DescBytes  = 64
)

// ringExtent is one registered buffer range descriptors may reference.
type ringExtent struct {
	base phys.Addr
	size uint64
}

// ringState is one context's descriptor ring.
type ringState struct {
	base     phys.Addr // descriptor array base in local memory
	depth    uint64    // slots in the ring (0 = no ring installed)
	head     uint64    // next slot index the walk consumes
	inFlight uint64    // descriptors kicked whose completion has not landed
	gen      uint32    // bumped on SetupRing/TeardownRing; stale completions no-op
	allow    []ringExtent
}

// maxRingExtents bounds the per-ring registration table (a real NIC's
// MR table is similarly finite).
const maxRingExtents = 64

// NumRings returns how many descriptor rings the configuration
// provides: one per register context, or zero when no ring window is
// placed (RingBase unset).
func (c Config) NumRings() int {
	if c.RingBase == 0 {
		return 0
	}
	n := c.Contexts
	if c.Mode == ModeExtended {
		n = 1 << c.CtxBits
	}
	if n < 1 {
		n = 1
	}
	return n
}

// RingWindowSize returns the bus-window size of the doorbell pages
// (one page per ring, so each can be mapped into exactly one process).
func (c Config) RingWindowSize() uint64 {
	return uint64(c.NumRings()) * c.PageSize
}

// RingPage returns the physical base of ring ctx's doorbell page.
func (c Config) RingPage(ctx int) phys.Addr {
	return c.RingBase + phys.Addr(uint64(ctx)*c.PageSize)
}

// RingMaxDepth returns the deepest ring the configuration supports: the
// descriptor array must fit in one page so the kernel can grant it with
// a single frame registration.
func (c Config) RingMaxDepth() uint64 { return c.PageSize / DescBytes }

// SetupRing installs a descriptor ring for context ctx at physical base
// (page-aligned, in local memory) with the given slot count. Kernel
// setup-time operation, like SetKey; any previous ring state (head,
// in-flight bookkeeping, registered extents) is discarded.
func (e *Engine) SetupRing(ctx int, base phys.Addr, depth uint64) error {
	if e.cfg.RingBase == 0 {
		return fmt.Errorf("dma: engine has no ring window (RingBase unset)")
	}
	if ctx < 0 || ctx >= len(e.rings) {
		return fmt.Errorf("dma: ring context %d out of range", ctx)
	}
	if depth < 1 || depth > e.cfg.RingMaxDepth() {
		return fmt.Errorf("dma: ring depth %d out of range 1..%d", depth, e.cfg.RingMaxDepth())
	}
	if uint64(base)%e.cfg.PageSize != 0 {
		return fmt.Errorf("dma: ring base %v not page-aligned", base)
	}
	if uint64(base)+depth*DescBytes > e.cfg.MemSize {
		return fmt.Errorf("dma: ring at %v depth %d exceeds local memory", base, depth)
	}
	r := &e.rings[ctx]
	r.base, r.depth, r.head, r.inFlight = base, depth, 0, 0
	r.gen++
	r.allow = r.allow[:0]
	e.decodeVer++
	return nil
}

// TeardownRing removes context ctx's ring (kernel teardown / context
// revocation). Transfers already accepted keep streaming — the engine
// owns them — but their completion records become no-ops for the ring's
// bookkeeping (generation check), exactly like a NIC whose ring was
// re-armed mid-flight.
func (e *Engine) TeardownRing(ctx int) {
	if ctx < 0 || ctx >= len(e.rings) {
		return
	}
	r := &e.rings[ctx]
	r.base, r.depth, r.head, r.inFlight = 0, 0, 0, 0
	r.gen++
	r.allow = r.allow[:0]
	e.decodeVer++
}

// RingAllow registers [base, base+size) as a buffer extent descriptors
// on ring ctx may reference (the kernel calls this with frames the
// owning process mapped — the registration step of RDMA). Extents are
// checked on every descriptor; an unregistered address is rejected with
// a DMA_FAILURE completion record.
func (e *Engine) RingAllow(ctx int, base phys.Addr, size uint64) error {
	if ctx < 0 || ctx >= len(e.rings) {
		return fmt.Errorf("dma: ring context %d out of range", ctx)
	}
	r := &e.rings[ctx]
	if r.depth == 0 {
		return fmt.Errorf("dma: ring context %d has no ring installed", ctx)
	}
	if size == 0 || !inBounds(uint64(base), size, e.cfg.MemSize) {
		return fmt.Errorf("dma: ring extent %v+%d outside local memory", base, size)
	}
	if len(r.allow) >= maxRingExtents {
		return fmt.Errorf("dma: ring context %d extent table full (%d)", ctx, maxRingExtents)
	}
	r.allow = append(r.allow, ringExtent{base: base, size: size})
	e.decodeVer++
	return nil
}

// RingState reports a ring's geometry and progress (tests and the
// kernel's bookkeeping use it).
func (e *Engine) RingState(ctx int) (base phys.Addr, depth, head, inFlight uint64) {
	if ctx < 0 || ctx >= len(e.rings) {
		return 0, 0, 0, 0
	}
	r := &e.rings[ctx]
	return r.base, r.depth, r.head, r.inFlight
}

// ringAllowed reports whether [addr, addr+size) lies inside one
// registered extent.
func (r *ringState) ringAllowed(addr phys.Addr, size uint64) bool {
	for i := range r.allow {
		ext := &r.allow[i]
		if addr >= ext.base && inBounds(uint64(addr-ext.base), size, ext.size) {
			return true
		}
	}
	return false
}

// completeRing lands a ring transfer's completion record; for a
// zero-size transfer it is also the finish (see schedule). It runs as
// the record's last event at End. Transfers whose ring was torn down
// or re-armed since acceptance still write their record (the engine
// masters the bus; the frames were valid at acceptance) but no longer
// touch the new ring's bookkeeping.
func (e *Engine) completeRing(t *Transfer, at sim.Time) {
	if t.Size == 0 && !t.Failed {
		e.finish(t)
	}
	status := uint64(0)
	if t.Failed {
		status = StatusFailure
	}
	e.writeCompletion(t.slot, status, at)
	r := &e.rings[t.rctx]
	if r.gen == t.gen && r.inFlight > 0 {
		r.inFlight--
		e.decodeVer++
	}
}

// writeCompletion stores the (status, timestamp) record into a
// descriptor slot — every record counts, including immediate
// DMA_FAILURE rejections. The engine masters these writes on memory it
// validated at setup time; a failure is a model bug.
func (e *Engine) writeCompletion(slot phys.Addr, status uint64, at sim.Time) {
	e.ctr.RingCompletions.Inc()
	if err := e.mem.Write(slot+DescStatus, phys.Size64, status); err != nil {
		panic(err)
	}
	if err := e.mem.Write(slot+DescStamp, phys.Size64, uint64(at)); err != nil {
		panic(err)
	}
}

// ringStore is the doorbell: one store to ring ctx's doorbell page
// kicks up to val descriptors. In keyed mode the doorbell word carries
// key<<KeyShift | count and the key is checked ONCE for the whole batch
// (the amortized form of the per-store key check of §3.1); other modes
// take the count directly. Returns the extra bus latency.
func (e *Engine) ringStore(now sim.Time, off uint64, val uint64) (int64, error) {
	ctx := int(off / e.cfg.PageSize)
	r := &e.rings[ctx]
	var lat int64
	n := val
	if e.cfg.Mode == ModeKeyed {
		lat = e.cfg.KeyCheckCycles
		key := val >> KeyShift
		n = val & (1<<KeyShift - 1)
		if e.keys[ctx] == 0 || e.keys[ctx] != key {
			// Silent drop, like a keyed shadow store with a bad key: a
			// revoked or forged doorbell must not be probeable.
			e.ctr.KeyMismatches.Inc()
			return lat, nil
		}
	}
	if r.depth == 0 {
		// No ring installed: drop. The doorbell page is only ever mapped
		// while a ring is, so this is a stale access after revocation.
		e.ctr.Rejected.Inc()
		return lat, nil
	}
	if n > r.depth {
		n = r.depth
	}
	e.decodeVer++ // the walk below moves head and inFlight
	e.ctr.RingDoorbells.Inc()
	for i := uint64(0); i < n; i++ {
		slot := r.base + phys.Addr(r.head*DescBytes)
		r.head++
		if r.head == r.depth {
			r.head = 0
		}
		e.walkDescriptor(now, ctx, r, slot)
	}
	e.ctr.RingPosted.Add(n)
	return lat, nil
}

// walkDescriptor consumes one slot: fetch the arguments the client left
// in memory, validate them against the registered extents, start the
// transfer on the shared channel, and arrange the completion record.
func (e *Engine) walkDescriptor(now sim.Time, ctx int, r *ringState, slot phys.Addr) {
	src, err := e.mem.Read(slot+DescSrc, phys.Size64)
	if err != nil {
		panic(err) // ring base was validated against MemSize at setup
	}
	dst, err := e.mem.Read(slot+DescDst, phys.Size64)
	if err != nil {
		panic(err)
	}
	size, err := e.mem.Read(slot+DescSize, phys.Size64)
	if err != nil {
		panic(err)
	}
	a := args{src: phys.Addr(src), dst: phys.Addr(dst), size: size, ring: true}
	remoteDst := e.cfg.RemoteBase != 0 && a.dst >= e.cfg.RemoteBase
	if !r.ringAllowed(a.src, size) || (!remoteDst && !r.ringAllowed(a.dst, size)) {
		// Unregistered address: DMA_FAILURE record, immediately.
		e.ctr.Rejected.Inc()
		e.writeCompletion(slot, StatusFailure, now)
		return
	}
	t, ok := e.start(now, a)
	if !ok {
		e.writeCompletion(slot, StatusFailure, now)
		return
	}
	r.inFlight++
	t.slot, t.rctx, t.gen = slot, int32(ctx), r.gen
	t.refs++
	e.events.ScheduleFunc(t.End, t.fire)
}

// ringLoad is the doorbell page's read side: the in-flight descriptor
// count, so one uncached load answers "has my whole batch completed?".
func (e *Engine) ringLoad(off uint64) (uint64, int64, error) {
	ctx := int(off / e.cfg.PageSize)
	return e.rings[ctx].inFlight, 0, nil
}
