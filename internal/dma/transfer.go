package dma

import (
	"fmt"

	"uldma/internal/phys"
	"uldma/internal/sim"
)

// Transfer is one DMA data movement. The engine models transfers
// analytically: the payload is snapshotted from the source when the
// transfer is accepted, delivery happens as a scheduled event at the
// computed completion time, and status reads interpolate the remaining
// byte count in between. The engine is a single-channel device:
// back-to-back transfers queue behind each other.
type Transfer struct {
	Src  phys.Addr
	Dst  phys.Addr
	Size uint64

	// Start and End bound the data movement in simulated time (Start
	// includes queueing behind an earlier transfer plus engine startup).
	Start sim.Time
	End   sim.Time

	// Remote transfer fields: Node and RemoteAddr identify the
	// destination on the cluster fabric.
	Remote     bool
	Node       int
	RemoteAddr phys.Addr

	// Failed marks a transfer that was rejected at validation time (or,
	// for a virtual transfer, failed on an unresolvable mid-transfer
	// fault); it never (fully) moved data.
	Failed bool

	// Virt marks a transfer initiated on device virtual addresses: Src
	// and Dst hold device VAs for translation context VCtx, translated
	// at walk time through the engine's IOMMU (va.go).
	Virt bool
	VCtx int

	delivered bool
	vw        *vaWalker // in-flight virtual delivery state (nil once done)

	// A transfer started by a descriptor-ring walk (see args) writes its
	// completion record into descriptor slot of ring rctx, if the ring is
	// still at generation gen (ring.go).
	ring bool
	rctx int32
	gen  uint32
	slot phys.Addr

	// Pool bookkeeping (see Engine.drop). refs counts what can still
	// reach the record: e.last, a register context's cur, each pending
	// event and a VA walker. bursts counts the pending data events; off
	// is the next local burst to land, data a remote payload awaiting its
	// ship, and fire the record's one completion method value (deliver),
	// bound when the record is first allocated.
	e      *Engine
	refs   int32
	bursts int32
	off    uint64
	data   []byte
	fire   func(sim.Time)
}

// Remaining returns the bytes still to move at time now: the paper's
// register-context read value ("the number of bytes that need to be
// transferred yet ... 0 means completed").
func (t *Transfer) Remaining(now sim.Time) uint64 {
	if t.Failed {
		return StatusFailure
	}
	if t.vw != nil && !t.delivered && now >= t.End {
		// A virtual transfer past its nominal End but still walking (or
		// parked on a fault): the real End is still moving, so report the
		// minimum in-progress count rather than completion.
		return 1
	}
	if now >= t.End || t.Size == 0 {
		return 0
	}
	if now <= t.Start {
		return t.Size
	}
	total := t.End - t.Start
	left := t.End - now
	rem := uint64(float64(t.Size) * float64(left) / float64(total))
	if rem == 0 {
		rem = 1 // not complete until End
	}
	if rem > t.Size {
		rem = t.Size
	}
	return rem
}

// Done reports whether the payload has been delivered.
func (t *Transfer) Done(now sim.Time) bool { return !t.Failed && now >= t.End && t.vw == nil }

// busyUntil tracks the single-channel queueing (stored on the engine).
type transferEngine struct {
	busyUntil sim.Time
}

// inBounds reports whether [addr, addr+size) lies inside [0, limit).
// It never computes addr+size: the size is guest data, and the sum
// could wrap past zero.
func inBounds(addr, size, limit uint64) bool {
	return addr <= limit && size <= limit-addr
}

// validateTransfer checks a physical transfer request against local
// memory and the fabric (start has already applied MaxTransfer).
func (e *Engine) validateTransfer(src, dst phys.Addr, size uint64) bool {
	if !inBounds(uint64(src), size, e.cfg.MemSize) {
		return false // source must be local, fully in memory
	}
	if e.cfg.RemoteBase != 0 && dst >= e.cfg.RemoteBase {
		return e.remote != nil
	}
	return inBounds(uint64(dst), size, e.cfg.MemSize)
}

// args is one initiation request: what every protocol has collected by
// the time its completing access asks the engine to move data.
type args struct {
	src, dst phys.Addr
	size     uint64
	// virt marks src/dst as device VAs for translation context vctx,
	// translated at walk time through the IOMMU (va.go).
	virt bool
	vctx int
	// ring marks a descriptor-ring start (ring.go): a zero-size transfer
	// is finished by its ring completion, not by an event here.
	ring bool
}

// start is the one place a transfer is accepted or refused. Past the
// MaxTransfer cap, a virtual request is admitted by the IOMMU path
// (admitVA, whose pin latency precedes engine startup) and a physical
// one by validateTransfer. Either way the record becomes the engine's
// "last": a refusal is a Failed record, an acceptance is announced to
// the accept hook and has its delivery scheduled.
func (e *Engine) start(now sim.Time, a args) (*Transfer, bool) {
	if !a.virt {
		a.vctx = 0
	}
	var pinLat sim.Time
	ok := e.cfg.MaxTransfer == 0 || a.size <= e.cfg.MaxTransfer
	if ok && a.virt {
		pinLat, ok = e.admitVA(a)
	} else if ok {
		ok = e.validateTransfer(a.src, a.dst, a.size)
	}
	t := e.newTransfer()
	t.Src, t.Dst, t.Size, t.Virt, t.VCtx = a.src, a.dst, a.size, a.virt, a.vctx
	if !ok {
		e.ctr.Rejected.Inc()
		t.Failed, t.Start, t.End = true, now, now
		e.point(&e.last, t)
		return t, false
	}
	begin := max(now+pinLat, e.xfer.busyUntil) + e.cfg.StartupTime
	duration := sim.Time(0)
	if a.size > 0 {
		duration = e.copyDur(a.size)
	}
	t.Start, t.End, t.ring = begin, begin+duration, a.ring
	if !a.virt && e.cfg.RemoteBase != 0 && a.dst >= e.cfg.RemoteBase {
		t.Remote = true
		off := uint64(a.dst - e.cfg.RemoteBase)
		t.Node = int(off >> e.cfg.NodeShift)
		t.RemoteAddr = phys.Addr(off & (1<<e.cfg.NodeShift - 1))
		e.ctr.RemoteStarted.Inc()
	}
	e.xfer.busyUntil = t.End
	e.ctr.Started.Inc()
	if a.virt {
		e.ctr.VAStarted.Inc()
	}
	if t.Start < e.audit.lastStart {
		e.violate(fmt.Errorf("dma: transfer starts (%v) before its predecessor (%v)", t.Start, e.audit.lastStart))
	}
	e.audit.lastStart = t.Start
	e.point(&e.last, t)
	if e.onAccept != nil {
		e.onAccept(*t)
	}
	if e.reserver != nil && t.End > t.Start {
		// The engine masters the bus while it streams: CPU traffic in
		// this window pays contention.
		e.reserver.ReserveDMA(t.Start, t.End)
	}
	e.schedule(t)
	return t, true
}

// copyDur returns the engine-bandwidth time to move n bytes (at least
// a nanosecond).
func (e *Engine) copyDur(n uint64) sim.Time {
	d := sim.Time(uint64(sim.Second) / e.cfg.Bandwidth * n)
	if d == 0 {
		d = sim.Nanosecond
	}
	return d
}

// initiate starts the transfer a completing access asks for and returns
// the status that access reads: the bytes still to move, or
// StatusFailure. reg >= 0 names the register context the arguments were
// collected in; an accepted transfer becomes its cur record.
func (e *Engine) initiate(now sim.Time, reg int, a args) uint64 {
	t, ok := e.start(now, a)
	if ok && reg >= 0 {
		e.point(&e.ctxs[reg].cur, t)
	}
	return t.Remaining(now)
}

// point makes *ref name t (which may be nil), holding t and dropping
// the record *ref named before.
func (e *Engine) point(ref **Transfer, t *Transfer) {
	if t != nil {
		t.refs++
	}
	if old := *ref; old != nil {
		e.drop(old)
	}
	*ref = t
}

// drop releases one reference to t. The last one retires the record:
// by then it has been displaced from e.last and its context's cur, and
// whichever path delivers it has finished with it. The retire-time
// audit runs, and the record goes back to the free list.
func (e *Engine) drop(t *Transfer) {
	if t.refs--; t.refs > 0 {
		return
	}
	if t.refs < 0 {
		panic("dma: transfer record released twice")
	}
	if !t.Failed {
		if err := e.auditRecord(t); err != nil {
			e.violate(err)
		}
		e.audit.retired += t.Size
	}
	e.freeT = append(e.freeT, t)
}

// newTransfer pops a zeroed record from the free list, or allocates one
// and binds its completion method value.
func (e *Engine) newTransfer() *Transfer {
	if n := len(e.freeT); n > 0 {
		t := e.freeT[n-1]
		e.freeT = e.freeT[:n-1]
		*t = Transfer{e: e, fire: t.fire}
		return t
	}
	t := &Transfer{e: e}
	t.fire = t.deliver
	return t
}

// snapshot reads the whole payload at acceptance time into a pooled
// buffer (returned to the pool by deliver via putBuf). Only
// remote transfers need it; local transfers re-read each burst at its
// burst time, so they never allocate a copy of the full payload.
func (e *Engine) snapshot(t *Transfer) []byte {
	data := e.getBuf(t.Size)
	if err := e.mem.ReadInto(t.Src, data); err != nil {
		// validate() bounds-checked; failure here is a model bug.
		panic(err)
	}
	return data
}

// getBuf pops a pooled payload buffer of length n (allocating if the
// pool is empty or its top is too small).
func (e *Engine) getBuf(n uint64) []byte {
	if k := len(e.freeBuf); k > 0 && uint64(cap(e.freeBuf[k-1])) >= n {
		b := e.freeBuf[k-1][:n]
		e.freeBuf = e.freeBuf[:k-1]
		return b
	}
	return make([]byte, n)
}

// putBuf returns a payload buffer to the pool.
func (e *Engine) putBuf(b []byte) { e.freeBuf = append(e.freeBuf, b) }

// transferChunk is the engine's burst size: local transfers become
// visible in destination memory chunk by chunk as the stream
// progresses, the way a real bus-mastering DMA lands its bursts.
const transferChunk = 4096

// finish records a transfer's completion.
func (e *Engine) finish(t *Transfer) {
	t.delivered = true
	e.ctr.Completed.Inc()
	e.ctr.BytesMoved.Add(t.Size)
}

// deliver is every physical delivery event, bound once per record as
// t.fire; each scheduled event holds one reference. Once the data
// events are spent, the event left is a ring transfer's completion
// (scheduled after them, at End). Otherwise a zero-size transfer
// finishes, a remote payload is handed to the fabric, and a local
// transfer lands its next burst: the source is read AT BURST TIME (so a
// CPU store to a not-yet-read part of the source is picked up, exactly
// as on real hardware — and why well-behaved clients don't touch
// in-flight buffers), then written to the destination. Bursts fire in
// (At, seq) order, so off advances monotonically.
func (t *Transfer) deliver(at sim.Time) {
	e := t.e
	t.bursts--
	switch {
	case t.bursts < 0:
		e.completeRing(t, at)
	case t.Size == 0:
		e.finish(t)
	case t.Remote:
		// The fabric copies what it keeps (RemoteHandler contract), so the
		// payload buffer goes straight back to the pool.
		data := t.data
		t.data = nil
		err := e.remote.Deliver(t.Node, t.RemoteAddr, data, at)
		e.putBuf(data)
		if err != nil {
			e.failAccepted(t, err)
		} else {
			e.finish(t)
		}
	case !t.Failed:
		lo := t.off
		hi := min(lo+transferChunk, t.Size)
		t.off = hi
		if err := e.mem.Move(t.Dst+phys.Addr(lo), t.Src+phys.Addr(lo), int(hi-lo)); err != nil {
			e.failAccepted(t, err)
		} else if hi == t.Size {
			e.finish(t)
		}
	}
	e.drop(t)
}

// failAccepted fails a physical transfer after acceptance. Validation
// bounds-checked both extents, so this is a model bug: the audit
// latches it.
func (e *Engine) failAccepted(t *Transfer, err error) {
	t.Failed = true
	e.violate(fmt.Errorf("dma: accepted transfer %v->%v failed in delivery: %w", t.Src, t.Dst, err))
}

// schedule arranges delivery of the payload, holding t once per
// pending event. A zero-size transfer only finishes at End; a virtual
// one is walked through the IOMMU (scheduleVA). Local transfers land in
// transferChunk-sized pieces spread across [Start, End], each chunk
// read from the source at its burst time. Remote payloads are
// snapshotted at acceptance and handed to the fabric as one message at
// End, where link serialization takes over. All burst events are
// scheduled up front at acceptance, preserving the queue's FIFO
// tie-break order across overlapping transfers.
func (e *Engine) schedule(t *Transfer) {
	switch {
	case t.Size == 0:
		// A ring start's completion (ring.go) finishes it at t.End
		// instead.
		if !t.ring {
			t.refs++
			t.bursts++
			e.events.ScheduleFunc(t.End, t.fire)
		}
		return
	case t.Virt:
		e.scheduleVA(t)
		return
	case t.Remote:
		// Snapshot the whole payload at acceptance and ship it when the
		// engine finishes streaming it out.
		t.data = e.snapshot(t)
		t.refs++
		t.bursts++
		e.events.ScheduleFunc(t.End, t.fire)
		return
	}
	chunks := int((t.Size + transferChunk - 1) / transferChunk)
	span := t.End - t.Start
	t.refs += int32(chunks)
	t.bursts += int32(chunks)
	for i := 0; i < chunks; i++ {
		hi := min(uint64(i)*transferChunk+transferChunk, t.Size)
		// Chunk i lands when its last byte has streamed.
		e.events.ScheduleFunc(t.Start+sim.Time(uint64(span)*hi/t.Size), t.fire)
	}
}
