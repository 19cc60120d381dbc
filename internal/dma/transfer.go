package dma

import (
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
	ring      bool      // started by a descriptor-ring walk (see args)
	vw        *vaWalker // in-flight virtual delivery state (nil once done)
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
	// is finished by its pooled completion record, not by an event here.
	ring bool
}

// start is the one place a transfer is accepted or refused. Past the
// MaxTransfer cap, a virtual request is admitted by the IOMMU path
// (admitVA, whose pin latency precedes engine startup) and a physical
// one by validateTransfer. On
// acceptance the completion is scheduled and the transfer becomes the
// engine's "last"; a refusal leaves a Failed record there instead.
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
	if !ok {
		e.ctr.Rejected.Inc()
		e.last = &Transfer{Src: a.src, Dst: a.dst, Size: a.size, Failed: true, Start: now, End: now, Virt: a.virt, VCtx: a.vctx}
		return e.last, false
	}
	begin := max(now+pinLat, e.xfer.busyUntil) + e.cfg.StartupTime
	duration := sim.Time(0)
	if a.size > 0 {
		duration = e.copyDur(a.size)
	}
	prev := e.last
	t := e.newTransfer()
	t.Src, t.Dst, t.Size, t.Start, t.End = a.src, a.dst, a.size, begin, begin+duration
	t.Virt, t.VCtx, t.ring = a.virt, a.vctx, a.ring
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
	e.last = t
	if e.logging {
		e.log = append(e.log, t)
	}
	if e.reserver != nil && t.End > t.Start {
		// The engine masters the bus while it streams: CPU traffic in
		// this window pays contention.
		e.reserver.ReserveDMA(t.Start, t.End)
	}
	if a.ring && prev != nil && prev.ring {
		// A batch's final transfer is still e.last when its completion
		// record lands, so the record leaves it alive for last-status
		// polling; it is reclaimed once the next ring start displaces it.
		// Only ring-started transfers are safe to take: they are never a
		// register context's cur record.
		e.retire(prev, t)
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
// collected in; an accepted transfer becomes its cur record, and the
// record it displaces is retired.
func (e *Engine) initiate(now sim.Time, reg int, a args) uint64 {
	t, ok := e.start(now, a)
	if ok && reg >= 0 {
		c := &e.ctxs[reg]
		old := c.cur
		c.cur = t
		e.retire(old, t)
	}
	return t.Remaining(now)
}

// retire is the one place a Transfer record is recycled: with logging
// off, old goes back to the free list once t has displaced it and its
// delivery has landed. By then nothing can reach old any more — e.last
// and the context's cur point elsewhere, and a delivered transfer has no
// pending events.
func (e *Engine) retire(old, t *Transfer) {
	if !e.logging && old != nil && old != t && old.delivered {
		e.freeT = append(e.freeT, old)
	}
}

// newTransfer returns a Transfer record: fresh while the log is kept
// (records are retained forever), recycled from the free list once
// logging is off (see Engine.SetLogging).
func (e *Engine) newTransfer() *Transfer {
	if !e.logging {
		if n := len(e.freeT); n > 0 {
			t := e.freeT[n-1]
			e.freeT = e.freeT[:n-1]
			*t = Transfer{}
			return t
		}
	}
	return &Transfer{}
}

// snapshot reads the whole payload at acceptance time into a pooled
// buffer (returned to the pool by remoteShip.run via putBuf). Only
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

// remoteShip is one in-flight remote payload waiting for its End event:
// the pooled replacement for a per-transfer closure. The fire closure is
// built once per record and captures only the record, so scheduling the
// ship rides the event queue's pooled no-handle path allocation-free.
type remoteShip struct {
	e    *Engine
	t    *Transfer
	data []byte
	fire func(sim.Time)
}

func (e *Engine) getShip() *remoteShip {
	if n := len(e.freeShip); n > 0 {
		s := e.freeShip[n-1]
		e.freeShip = e.freeShip[:n-1]
		return s
	}
	s := &remoteShip{e: e}
	s.fire = func(at sim.Time) { s.run(at) }
	return s
}

// run hands the payload to the fabric. The fabric copies what it keeps
// (RemoteHandler contract), so the payload buffer goes straight back to
// the pool, as does the ship record itself.
func (s *remoteShip) run(at sim.Time) {
	e, t, data := s.e, s.t, s.data
	s.t, s.data = nil, nil
	e.freeShip = append(e.freeShip, s)
	err := e.remote.Deliver(t.Node, t.RemoteAddr, data, at)
	e.putBuf(data)
	if err != nil {
		t.Failed = true
		return
	}
	e.finish(t)
}

// localWalker is the delivery state of one local transfer. A single
// walker replaces the old one-closure-per-chunk scheme: every burst
// event shares the walker's one bound step method and one reusable
// chunk buffer, and rides the event queue's pooled ScheduleFunc path —
// so an N-chunk stream costs one walker allocation instead of N event
// + N closure + N chunk-slice allocations.
type localWalker struct {
	e   *Engine
	t   *Transfer
	off uint64 // start of the next burst to land
	buf []byte // reusable burst buffer
}

// step lands the next burst: read the source AT BURST TIME (so a CPU
// store to a not-yet-read part of the source is picked up, exactly as
// on real hardware — and why well-behaved clients don't touch
// in-flight buffers), then write it to the destination. Bursts fire in
// (At, seq) order, so off advances monotonically.
func (w *localWalker) step(sim.Time) {
	t := w.t
	if t.Failed {
		return
	}
	lo := w.off
	hi := lo + transferChunk
	if hi > t.Size {
		hi = t.Size
	}
	w.off = hi
	buf := w.buf[:hi-lo]
	if err := w.e.mem.ReadInto(t.Src+phys.Addr(lo), buf); err != nil {
		t.Failed = true
		return
	}
	if err := w.e.mem.WriteBytes(t.Dst+phys.Addr(lo), buf); err != nil {
		t.Failed = true
		return
	}
	if hi == t.Size {
		w.e.finish(t)
	}
}

// schedule arranges delivery of the payload. A zero-size transfer only
// finishes at End; a virtual one is walked through the IOMMU
// (scheduleVA). Local transfers land in
// transferChunk-sized pieces spread across [Start, End], each chunk
// read from the source at its burst time. Remote payloads are
// snapshotted at acceptance and handed to the fabric as one message at
// End, where link serialization takes over. All burst events are
// scheduled up front at acceptance, preserving the queue's FIFO
// tie-break order across overlapping transfers.
func (e *Engine) schedule(t *Transfer) {
	switch {
	case t.Size == 0:
		if !t.ring {
			e.events.ScheduleFunc(t.End, func(sim.Time) { e.finish(t) })
		}
		// A ring start's pooled completion record (ring.go) delivers
		// finish at t.End, which keeps the doorbell hot path
		// allocation-free.
		return
	case t.Virt:
		e.scheduleVA(t)
		return
	case t.Remote:
		// Snapshot the whole payload at acceptance and ship it when the
		// engine finishes streaming it out. The ship record (and its one
		// fire closure) is pooled, so a steady stream of remote transfers
		// allocates nothing here.
		s := e.getShip()
		s.t, s.data = t, e.snapshot(t)
		e.events.ScheduleFunc(t.End, s.fire)
		return
	}
	chunks := int((t.Size + transferChunk - 1) / transferChunk)
	bufN := uint64(transferChunk)
	if t.Size < bufN {
		bufN = t.Size
	}
	w := &localWalker{e: e, t: t, buf: make([]byte, bufN)}
	step := w.step // one bound closure shared by every burst
	span := t.End - t.Start
	for i := 0; i < chunks; i++ {
		hi := uint64(i)*transferChunk + transferChunk
		if hi > t.Size {
			hi = t.Size
		}
		// Chunk i lands when its last byte has streamed.
		e.events.ScheduleFunc(t.Start+sim.Time(uint64(span)*hi/t.Size), step)
	}
}
