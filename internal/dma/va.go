package dma

// Virtual-address DMA (the IOMMU path). The paper's shadow-address
// trick exists because this engine consumes *physical* addresses; its
// successors (Psistakis/Katevenis: IOMMU support for virtual-address
// remote DMA) put an I/O MMU between the engine and memory so user code
// initiates on device virtual addresses instead. This file is the
// engine half of that design:
//
//   - a VA shadow window (Config.VABase), laid out exactly like the
//     extended shadow window — ctx<<MemBits | va — whose accesses run
//     the SAME per-mode decode FSMs as the physical shadow window, but
//     tag the collected arguments as virtual. A transfer initiated
//     through the VA window carries (ctx, srcVA, dstVA) and translates
//     at WALK time, chunk by chunk, through the attached Translator;
//   - a vaWalker per in-flight virtual transfer: it streams the payload
//     in transferChunk bursts split on device-page boundaries, charges
//     Config.IOTLBMissTime per IOTLB miss, and turns translation
//     faults over to the engine's recovery policy;
//   - three recovery policies for a fault that strikes mid-transfer:
//     stall-and-resolve (park the transfer, kernel resolves, engine
//     resumes), bounce-buffer (redirect the faulting destination page
//     into a pinned bounce region and fix it up with a copy once the
//     kernel has paged the real frame in), and kernel-assisted pin
//     (pre-fault + pin the whole extent at initiation — the RDMA
//     memory-registration baseline, which can never fault mid-flight).
//
// Determinism: walkers and fix-ups are ordinary event-queue work;
// parked walkers are pure data and snapshot/restore with the engine
// (snapshot.go), so a faulted transfer replays byte-identically from
// (seed, plan).
//
// Timing model: a virtual transfer's nominal schedule is the same
// bandwidth line a physical transfer follows; IOTLB misses and fault
// stalls accumulate into a per-transfer penalty that pushes every
// subsequent chunk (and the final End) back. Penalties discovered
// mid-stream do not retroactively requeue transfers that were accepted
// earlier — a deliberate approximation that keeps acceptance analytic.

import (
	"errors"
	"fmt"

	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/sim"
)

// Translator is the engine's view of the IOMMU (implemented by
// internal/iommu, which depends on this package's sibling layers; the
// interface keeps dma free of that import).
type Translator interface {
	// TranslateIO resolves (ctx, va) for a device access. hit reports
	// an IOTLB hit; the engine charges Config.IOTLBMissTime when false.
	TranslateIO(ctx int, va uint64, write bool) (phys.Addr, bool, error)
	// IOPageSize returns the device page size (must equal the engine's).
	IOPageSize() uint64
	// IOContexts returns the number of device translation contexts.
	IOContexts() int
	// IOStateHash folds the IOMMU's complete state into one word; the
	// engine mixes it into its own StateHash.
	IOStateHash() uint64
}

// ErrFaultPending is returned by a FaultResolver that cannot resolve a
// fault inline (no pager, page truly absent): the engine parks the
// transfer until ResumeFaulted.
var ErrFaultPending = errors.New("dma: fault resolution pending")

// FaultResolver is the kernel's fault/pin service (implemented by
// internal/kernel). Latencies are simulated time the operation costs.
type FaultResolver interface {
	// ResolveFault makes (ctx, va) resident, returning the page-in
	// latency. ErrFaultPending parks the transfer (stall policy).
	ResolveFault(ctx int, va uint64, write bool) (sim.Time, error)
	// PinRange pre-faults and pins [va, va+size) (pin policy).
	PinRange(ctx int, va, size uint64, write bool) (sim.Time, error)
	// UnpinRange releases a pin taken by PinRange.
	UnpinRange(ctx int, va, size uint64)
}

// RecoveryPolicy selects what the engine does when a translation fault
// strikes mid-transfer.
type RecoveryPolicy uint8

const (
	// RecoverStall parks the transfer on the fault and resumes it once
	// the kernel has resolved the page (the default).
	RecoverStall RecoveryPolicy = iota
	// RecoverBounce redirects a faulting DESTINATION page into the
	// pinned bounce region and schedules a fix-up copy; source faults
	// still stall (there is no data to redirect on a read fault).
	RecoverBounce
	// RecoverPin pre-faults and pins both extents at initiation, so no
	// mid-transfer fault is possible — RDMA memory registration.
	RecoverPin
)

// String names the policy ("stall", "bounce", "pin").
func (p RecoveryPolicy) String() string {
	switch p {
	case RecoverStall:
		return "stall"
	case RecoverBounce:
		return "bounce"
	case RecoverPin:
		return "pin"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// RegisterVAMetrics publishes the virtual-address counters (the VA*
// cells of Counters). The machine calls this only when an IOMMU is
// configured.
func (e *Engine) RegisterVAMetrics(r *obs.Registry) {
	r.RegisterCounter("dma.va_stores", &e.ctr.VAStores)
	r.RegisterCounter("dma.va_loads", &e.ctr.VALoads)
	r.RegisterCounter("dma.va_started", &e.ctr.VAStarted)
	r.RegisterCounter("dma.va_faults", &e.ctr.VAFaults)
	r.RegisterCounter("dma.va_stalls", &e.ctr.VAStalls)
	r.RegisterCounter("dma.va_bounced", &e.ctr.VABounced)
	r.RegisterCounter("dma.va_pins", &e.ctr.VAPins)
}

// AttachIOMMU plugs the translator in. Its geometry must match the
// engine's (same page size, at least as many contexts).
func (e *Engine) AttachIOMMU(io Translator) error {
	if io.IOPageSize() != e.cfg.PageSize {
		return fmt.Errorf("dma: IOMMU page size %d != engine page size %d", io.IOPageSize(), e.cfg.PageSize)
	}
	if io.IOContexts() < len(e.ctxs) {
		return fmt.Errorf("dma: IOMMU has %d contexts, engine has %d", io.IOContexts(), len(e.ctxs))
	}
	e.iommu = io
	return nil
}

// SetFaultResolver attaches the kernel's fault/pin service.
func (e *Engine) SetFaultResolver(fr FaultResolver) { e.resolver = fr }

// SetRecoveryPolicy selects the mid-transfer fault policy. RecoverPin
// requires a resolver at initiation time.
func (e *Engine) SetRecoveryPolicy(p RecoveryPolicy) { e.policy = p }

// decodeVA splits a VA-window offset into (ctx, device VA) — the same
// ctx<<MemBits | va layout the extended shadow window uses.
func (e *Engine) decodeVA(off uint64) (int, uint64) {
	return int(off >> e.cfg.MemBits), off & (uint64(1)<<e.cfg.MemBits - 1)
}

// vaStore handles a store into the VA window: the same per-mode decode
// as a shadow store, with the collected argument tagged virtual. The
// original offset is passed through — decodeShadow masks to MemBits in
// the non-extended modes and extracts the same high bits in extended
// mode, so the FSMs see the device VA (and, in extended mode, the same
// context id) they would have seen for a physical shadow access.
func (e *Engine) vaStore(now sim.Time, off uint64, val uint64) (int64, error) {
	e.ctr.VAStores.Inc()
	ctx, _ := e.decodeVA(off)
	e.vaAcc, e.vaCtx = true, ctx
	lat, err := e.shadowStore(now, off, val)
	e.vaAcc = false
	return lat, err
}

// vaLoad handles a load from the VA window (see vaStore).
func (e *Engine) vaLoad(now sim.Time, off uint64) (uint64, int64, error) {
	e.ctr.VALoads.Inc()
	ctx, _ := e.decodeVA(off)
	e.vaAcc, e.vaCtx = true, ctx
	v, lat, err := e.shadowLoad(now, off)
	e.vaAcc = false
	return v, lat, err
}

// admitVA checks a virtual transfer request (start has already applied
// MaxTransfer) and returns the latency that precedes engine startup.
// Addresses are device VAs; residency is NOT checked — that is what the
// walker's fault path is for — except under RecoverPin, which pre-faults
// and pins both extents here, so a refused destination pin releases the
// source pin it follows.
func (e *Engine) admitVA(a args) (sim.Time, bool) {
	if e.iommu == nil || a.vctx < 0 || a.vctx >= e.iommu.IOContexts() {
		return 0, false
	}
	src, dst, limit := uint64(a.src), uint64(a.dst), uint64(1)<<e.cfg.MemBits
	if !inBounds(src, a.size, limit) || !inBounds(dst, a.size, limit) {
		return 0, false
	}
	if e.policy != RecoverPin {
		return 0, true
	}
	if e.resolver == nil {
		return 0, false
	}
	srcLat, err := e.resolver.PinRange(a.vctx, src, a.size, false)
	if err != nil {
		return 0, false
	}
	dstLat, err := e.resolver.PinRange(a.vctx, dst, a.size, true)
	if err != nil {
		e.resolver.UnpinRange(a.vctx, src, a.size)
		return 0, false
	}
	e.ctr.VAPins.Inc()
	return srcLat + dstLat, true
}

// scheduleVA arranges delivery of a virtual transfer.
func (e *Engine) scheduleVA(t *Transfer) {
	w := e.getVW()
	w.t, w.ctx = t, t.VCtx
	t.refs++
	w.srcVA, w.dstVA = uint64(t.Src), uint64(t.Dst)
	w.span = t.End - t.Start
	w.end0 = t.End
	w.maxFaults = int(2*(t.Size/e.cfg.PageSize) + 8)
	t.vw = w
	first := uint64(transferChunk)
	if t.Size < first {
		first = t.Size
	}
	e.events.ScheduleFunc(w.nominal(first), w.fire)
}

// vaWalker is the delivery state of one in-flight virtual transfer,
// pooled, and holding one reference to its transfer until released.
// Bursts are split on device-page boundaries so every piece translates
// exactly once per side.
type vaWalker struct {
	e   *Engine
	t   *Transfer
	ctx int // translation context

	srcVA, dstVA uint64
	off          uint64 // bytes landed so far (advances per PIECE, so a
	// re-run after a fault never duplicates completed pieces)
	span      sim.Time // nominal duration (End-Start at acceptance)
	end0      sim.Time // nominal End at acceptance (bus-reservation base)
	penalty   sim.Time // accumulated miss+stall lag pushed onto the schedule
	streamEnd sim.Time // time the last byte streamed
	lastFix   sim.Time // latest bounce fix-up completion

	parked bool // waiting for ResumeFaulted
	done   bool // stream complete (fix-ups may still be out)
	dead   bool // failed with fix-ups still out; last fix-up releases

	faultVA   uint64 // parked-on fault address
	faultWr   bool   // parked-on fault was a write
	faults    int    // faults taken (valve against livelock)
	maxFaults int
	fixups    int // outstanding bounce fix-up copies

	fire func(sim.Time)
}

func (e *Engine) getVW() *vaWalker {
	if n := len(e.freeVW); n > 0 {
		w := e.freeVW[n-1]
		e.freeVW = e.freeVW[:n-1]
		return w
	}
	w := &vaWalker{e: e}
	w.fire = func(at sim.Time) { w.step(at) }
	return w
}

func (e *Engine) putVW(w *vaWalker) {
	fire := w.fire
	*w = vaWalker{}
	w.e, w.fire = e, fire
	e.freeVW = append(e.freeVW, w)
}

// releaseVW detaches the walker from its transfer, drops the walker's
// reference, and pools it.
func (e *Engine) releaseVW(w *vaWalker) {
	if t := w.t; t != nil {
		t.vw = nil
		w.t = nil
		e.drop(t)
	}
	e.putVW(w)
}

// nominal returns when byte hi of the payload streams on the fault-free
// schedule.
func (w *vaWalker) nominal(hi uint64) sim.Time {
	return w.t.Start + sim.Time(uint64(w.span)*hi/w.t.Size)
}

// step lands pieces up to the next chunk boundary, translating each
// piece's source and destination pages. It runs as the walker's single
// in-flight event; on a fault it returns without rescheduling (the
// fault path owns what happens next).
func (w *vaWalker) step(at sim.Time) {
	if w.done || w.parked || w.t == nil || w.t.Failed {
		return
	}
	e, t := w.e, w.t
	hi := (w.off/transferChunk)*transferChunk + transferChunk
	if hi > t.Size {
		hi = t.Size
	}
	var extra sim.Time
	pageSize := e.cfg.PageSize
	for w.off < hi {
		n := hi - w.off
		sva := w.srcVA + w.off
		dva := w.dstVA + w.off
		if rem := pageSize - sva%pageSize; n > rem {
			n = rem
		}
		if rem := pageSize - dva%pageSize; n > rem {
			n = rem
		}
		spa, shit, err := e.iommu.TranslateIO(w.ctx, sva, false)
		if err != nil {
			w.fault(at+extra, sva, false)
			return
		}
		if !shit {
			extra += e.cfg.IOTLBMissTime
		}
		dpa, dhit, derr := e.iommu.TranslateIO(w.ctx, dva, true)
		if derr != nil {
			bounced := false
			if e.policy == RecoverBounce {
				if bpa, ok := e.bounceOut(w, at+extra, dva, n); ok {
					dpa, bounced = bpa, true
				}
			}
			if !bounced {
				w.fault(at+extra, dva, true)
				return
			}
		} else if !dhit {
			extra += e.cfg.IOTLBMissTime
		}
		if err := e.mem.Move(dpa, spa, int(n)); err != nil {
			w.fail(at + extra)
			return
		}
		w.off += n
	}
	if lag := at + extra - w.nominal(w.off); lag > w.penalty {
		w.penalty = lag
	}
	if w.off >= t.Size {
		w.done = true
		w.tryFinish(at + extra)
		return
	}
	next := (w.off/transferChunk)*transferChunk + transferChunk
	if next > t.Size {
		next = t.Size
	}
	e.events.ScheduleFunc(w.nominal(next)+w.penalty, w.fire)
}

// fault handles a translation fault at (va, write). Under an inline
// resolution the walker retries the same piece after the page-in
// latency; ErrFaultPending parks the transfer for ResumeFaulted.
func (w *vaWalker) fault(at sim.Time, va uint64, write bool) {
	e := w.e
	e.ctr.VAFaults.Inc()
	w.faults++
	if w.faults > w.maxFaults || e.resolver == nil {
		w.fail(at)
		return
	}
	lat, err := e.resolver.ResolveFault(w.ctx, va, write)
	if err != nil {
		if errors.Is(err, ErrFaultPending) {
			w.parked = true
			w.faultVA, w.faultWr = va, write
			e.ctr.VAStalls.Inc()
			e.vaParked = append(e.vaParked, w)
			return
		}
		w.fail(at)
		return
	}
	e.ctr.VAStalls.Inc()
	e.events.ScheduleFunc(at+lat, w.fire)
}

// ResumeFaulted unparks transfers parked on a fault (all of them, or
// only translation context ctx when ctx >= 0), rescheduling their
// walkers at time at. The kernel calls this after making the faulted
// pages resident. Returns how many transfers resumed.
func (e *Engine) ResumeFaulted(ctx int, at sim.Time) int {
	n := 0
	kept := e.vaParked[:0]
	for _, w := range e.vaParked {
		if w.parked && (ctx < 0 || w.ctx == ctx) {
			w.parked = false
			n++
			e.events.ScheduleFunc(at, w.fire)
			continue
		}
		kept = append(kept, w)
	}
	for i := len(kept); i < len(e.vaParked); i++ {
		e.vaParked[i] = nil
	}
	e.vaParked = kept
	return n
}

// removeParked drops w from the parked list (failure path).
func (e *Engine) removeParked(w *vaWalker) {
	kept := e.vaParked[:0]
	for _, p := range e.vaParked {
		if p != w {
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(e.vaParked); i++ {
		e.vaParked[i] = nil
	}
	e.vaParked = kept
}

// bounceOut redirects a faulting destination page into a free bounce
// frame so the stream keeps moving, and schedules the fix-up copy for
// when the kernel has the real frame resident. Returns (bouncePA, true)
// on success; on any obstacle (no bounce region, no free frame, the
// resolver cannot page in) the caller falls back to the stall path.
func (e *Engine) bounceOut(w *vaWalker, at sim.Time, va, n uint64) (phys.Addr, bool) {
	if e.cfg.BouncePages == 0 || e.resolver == nil {
		return 0, false
	}
	k := len(e.bounceFree)
	if k == 0 {
		return 0, false
	}
	lat, err := e.resolver.ResolveFault(w.ctx, va, true)
	if err != nil {
		return 0, false
	}
	frame := e.bounceFree[k-1]
	e.bounceFree = e.bounceFree[:k-1]
	pa := e.cfg.BounceBase + phys.Addr(uint64(frame)*e.cfg.PageSize+va%e.cfg.PageSize)
	w.fixups++
	e.ctr.VABounced.Inc()
	// A pooled record (see vaFixup): once the pool is warm, a bounce
	// allocates nothing.
	fx := e.getFx()
	fx.w, fx.frame, fx.bpa, fx.va, fx.n = w, frame, pa, va, n
	e.events.ScheduleFunc(at+lat+e.copyDur(n), fx.fire)
	return pa, true
}

// vaFixup is one outstanding bounce fix-up: copy the piece from its
// bounce frame to the real (now resident) destination page, then free
// the frame. Records are pooled like walkers: the fire closure is
// built once per record, so a warm bounce schedules without allocating.
type vaFixup struct {
	w     *vaWalker
	frame int32
	bpa   phys.Addr // bounce source (frame base + page offset)
	va    uint64    // real destination device VA
	n     uint64
	tries int
	fire  func(sim.Time)
}

func (e *Engine) getFx() *vaFixup {
	if n := len(e.freeFx); n > 0 {
		fx := e.freeFx[n-1]
		e.freeFx = e.freeFx[:n-1]
		return fx
	}
	fx := &vaFixup{}
	fx.fire = func(at sim.Time) { fx.run(at) }
	return fx
}

// release retires the fix-up: the bounce frame returns to the free
// list, the walker's outstanding count drops, and the record goes back
// to the pool.
func (fx *vaFixup) release() {
	w := fx.w
	e := w.e
	e.bounceFree = append(e.bounceFree, fx.frame)
	w.fixups--
	*fx = vaFixup{fire: fx.fire}
	e.freeFx = append(e.freeFx, fx)
}

// maxFixupRetries bounds re-resolution of a destination page that was
// evicted again between the redirect and the fix-up.
const maxFixupRetries = 8

func (fx *vaFixup) run(at sim.Time) {
	w := fx.w
	e := w.e
	t := w.t
	if t == nil || t.Failed {
		fx.release()
		if w.dead && w.fixups == 0 {
			e.releaseVW(w)
		}
		return
	}
	dpa, _, err := e.iommu.TranslateIO(w.ctx, fx.va, true)
	if err != nil {
		// The page was evicted again before the fix-up landed: re-resolve
		// and retry, up to the valve.
		fx.tries++
		if fx.tries <= maxFixupRetries {
			if lat, rerr := e.resolver.ResolveFault(w.ctx, fx.va, true); rerr == nil {
				e.events.ScheduleFunc(at+lat, fx.fire)
				return
			}
		}
		fx.release()
		w.fail(at)
		return
	}
	// The bounce region was validated against MemSize, so only the
	// destination side of the copy can fail.
	werr := e.mem.Move(dpa, fx.bpa, int(fx.n))
	fx.release()
	if werr != nil {
		w.fail(at)
		return
	}
	if at > w.lastFix {
		w.lastFix = at
	}
	if w.done && w.fixups == 0 {
		w.tryFinish(w.streamEnd)
	}
}

// tryFinish records the stream end and finishes the transfer once both
// the stream and every fix-up have landed.
func (w *vaWalker) tryFinish(eff sim.Time) {
	if eff > w.streamEnd {
		w.streamEnd = eff
	}
	if !w.done || w.fixups > 0 {
		return
	}
	end := w.streamEnd
	if w.lastFix > end {
		end = w.lastFix
	}
	w.finishAt(end)
}

// finishAt completes the transfer at its REAL end: the End register
// moves to cover miss penalties, stalls and fix-ups, the channel and
// bus reservations extend with it, and pins release.
func (w *vaWalker) finishAt(end sim.Time) {
	e, t := w.e, w.t
	t.End = end
	if end > e.xfer.busyUntil {
		e.xfer.busyUntil = end
	}
	if e.reserver != nil && end > w.end0 {
		e.reserver.ReserveDMA(w.end0, end)
	}
	if e.policy == RecoverPin && e.resolver != nil {
		e.resolver.UnpinRange(w.ctx, w.srcVA, t.Size)
		e.resolver.UnpinRange(w.ctx, w.dstVA, t.Size)
	}
	e.finish(t)
	e.releaseVW(w)
}

// fail marks the transfer failed and releases everything. With fix-ups
// still outstanding the walker lingers (dead) until the last one runs.
func (w *vaWalker) fail(at sim.Time) {
	e, t := w.e, w.t
	t.Failed = true
	w.done = true
	if w.parked {
		w.parked = false
		e.removeParked(w)
	}
	if e.policy == RecoverPin && e.resolver != nil {
		e.resolver.UnpinRange(w.ctx, w.srcVA, t.Size)
		e.resolver.UnpinRange(w.ctx, w.dstVA, t.Size)
	}
	if w.fixups > 0 {
		w.dead = true
		return
	}
	e.releaseVW(w)
}
