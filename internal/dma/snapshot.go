package dma

// World snapshot/restore support (see internal/machine). A snapshot is
// taken with the world quiescent — event queue settled, every accepted
// transfer delivered — so Transfer records are immutable from then on
// and can be shared by pointer between the snapshot, the origin engine
// and any number of restored clones.

import (
	"fmt"

	"uldma/internal/phys"
	"uldma/internal/sim"
)

// EngineSnapshot captures an Engine's mutable state. See
// Engine.Snapshot.
type EngineSnapshot struct {
	ctxs    []regContext
	keys    []uint64
	pending pendingPair
	pidTrk  bool
	curPID  int
	seq     seqFSM
	pageMap map[phys.Addr]phys.Addr
	regSrc  uint64
	regDst  uint64
	last    *Transfer
	log     []*Transfer
	busy    sim.Time
	rings   []ringState
	ctr     Counters

	// Virtual-address state (va.go). Parked transfers are the one
	// exception to the records-immutable-post-settle rule — a resumed
	// walker mutates its Transfer — so each is captured by VALUE with
	// enough indices to re-point e.log/e.last/e.ctxs at a fresh copy.
	policy     RecoveryPolicy
	bounceFree []int32
	parked     []vaParkedSnap
}

// vaParkedSnap captures one fault-parked transfer and its walker.
type vaParkedSnap struct {
	t      Transfer // value copy; vw re-attached on restore
	logIdx int      // index in the transfer log (-1 impossible: logging required)
	isLast bool     // transfer was e.last
	ctxCur int      // register context whose cur pointed at it, or -1

	ctx          int
	srcVA, dstVA uint64
	off          uint64
	span         sim.Time
	end0         sim.Time
	penalty      sim.Time
	lastFix      sim.Time
	faultVA      uint64
	faultWr      bool
	faults       int
	maxFaults    int

	hasComp  bool // a ring completion was riding the walker
	compSlot phys.Addr
	compCtx  int32
	compGen  uint32
}

// Snapshot captures the engine's register contexts, key table,
// half-initiation slot, sequence FSM, mapped-out table, control
// registers, transfer log and counters. Engines attached to a cluster
// fabric refuse: in-flight link traffic lives outside the engine.
func (e *Engine) Snapshot() (*EngineSnapshot, error) {
	if e.remote != nil {
		return nil, fmt.Errorf("dma: cannot snapshot an engine attached to a cluster fabric")
	}
	if !e.logging {
		// Without the transfer log the snapshot could not restore the
		// engine faithfully (and recycled records are mutable).
		return nil, fmt.Errorf("dma: cannot snapshot an engine with transfer logging disabled")
	}
	s := &EngineSnapshot{
		ctxs:    append([]regContext(nil), e.ctxs...),
		keys:    append([]uint64(nil), e.keys...),
		pending: e.pending,
		pidTrk:  e.pidTrk,
		curPID:  e.curPID,
		seq:     e.seq, // pattern slice is immutable after init: share it
		regSrc:  e.regSrc,
		regDst:  e.regDst,
		last:    e.last,
		log:     append([]*Transfer(nil), e.log...),
		busy:    e.xfer.busyUntil,
		rings:   append([]ringState(nil), e.rings...),
		ctr:     e.ctr,
	}
	// ringState.allow is mutable (RingAllow appends, SetupRing truncates):
	// give the snapshot its own extent slices.
	for i := range s.rings {
		if n := len(s.rings[i].allow); n > 0 {
			s.rings[i].allow = append([]ringExtent(nil), s.rings[i].allow[:n]...)
		}
	}
	if len(e.pageMap) > 0 {
		s.pageMap = make(map[phys.Addr]phys.Addr, len(e.pageMap))
		for k, v := range e.pageMap {
			s.pageMap[k] = v
		}
	}
	s.policy = e.policy
	s.bounceFree = append([]int32(nil), e.bounceFree...)
	for _, w := range e.vaParked {
		if w.fixups != 0 {
			// Fix-up events drain at Settle; a non-zero count here means
			// the world was not quiescent.
			return nil, fmt.Errorf("dma: cannot snapshot with bounce fix-ups in flight")
		}
		ps := vaParkedSnap{
			t: *w.t, logIdx: -1, isLast: e.last == w.t, ctxCur: -1,
			ctx: w.ctx, srcVA: w.srcVA, dstVA: w.dstVA, off: w.off,
			span: w.span, end0: w.end0, penalty: w.penalty, lastFix: w.lastFix,
			faultVA: w.faultVA, faultWr: w.faultWr,
			faults: w.faults, maxFaults: w.maxFaults,
		}
		ps.t.vw = nil
		for i, t := range e.log {
			if t == w.t {
				ps.logIdx = i
				break
			}
		}
		for i := range e.ctxs {
			if e.ctxs[i].cur == w.t {
				ps.ctxCur = i
				break
			}
		}
		if c := w.comp; c != nil {
			ps.hasComp = true
			ps.compSlot, ps.compCtx, ps.compGen = c.slot, c.ctx, c.gen
		}
		s.parked = append(s.parked, ps)
	}
	return s, nil
}

// Restore rewinds the engine to the snapshot. The engine must have been
// built with the same Config as the snapshot's source (the machine
// layer guarantees this), which pins the context count and FSM shape.
func (e *Engine) Restore(s *EngineSnapshot) error {
	if len(s.ctxs) != len(e.ctxs) {
		return fmt.Errorf("dma: restore: snapshot has %d contexts, engine has %d", len(s.ctxs), len(e.ctxs))
	}
	copy(e.ctxs, s.ctxs)
	copy(e.keys, s.keys)
	e.pending = s.pending
	e.pidTrk = s.pidTrk
	e.curPID = s.curPID
	e.seq = s.seq
	for k := range e.pageMap {
		delete(e.pageMap, k)
	}
	for k, v := range s.pageMap {
		e.pageMap[k] = v
	}
	e.regSrc, e.regDst = s.regSrc, s.regDst
	e.last = s.last
	e.log = e.log[:0]
	e.log = append(e.log, s.log...)
	e.xfer.busyUntil = s.busy
	for i := range e.rings {
		r := s.rings[i]
		r.allow = append(e.rings[i].allow[:0], r.allow...)
		e.rings[i] = r
	}
	e.ctr = s.ctr
	e.policy = s.policy
	e.bounceFree = append(e.bounceFree[:0], s.bounceFree...)
	// Drop the current parked set (their transfers are being discarded
	// wholesale), then rebuild each snapshotted one around a FRESH
	// Transfer copy, re-pointing the log/last/context-cur references that
	// named the original record.
	for _, w := range e.vaParked {
		if c := w.comp; c != nil {
			w.comp = nil
			c.t = nil
			e.freeRingC = append(e.freeRingC, c)
		}
		w.t = nil
		e.putVW(w)
	}
	e.vaParked = e.vaParked[:0]
	for _, ps := range s.parked {
		nt := new(Transfer)
		*nt = ps.t
		w := e.getVW()
		w.t, w.ctx = nt, ps.ctx
		w.srcVA, w.dstVA, w.off = ps.srcVA, ps.dstVA, ps.off
		w.span, w.end0, w.penalty, w.lastFix = ps.span, ps.end0, ps.penalty, ps.lastFix
		w.faultVA, w.faultWr = ps.faultVA, ps.faultWr
		w.faults, w.maxFaults = ps.faults, ps.maxFaults
		w.parked = true
		nt.vw = w
		if ps.logIdx >= 0 && ps.logIdx < len(e.log) {
			e.log[ps.logIdx] = nt
		}
		if ps.isLast {
			e.last = nt
		}
		if ps.ctxCur >= 0 && ps.ctxCur < len(e.ctxs) {
			e.ctxs[ps.ctxCur].cur = nt
		}
		if ps.hasComp {
			c := e.getRingC()
			c.t, c.slot, c.ctx, c.gen = nt, ps.compSlot, ps.compCtx, ps.compGen
			w.comp = c
		}
		e.vaParked = append(e.vaParked, w)
	}
	return nil
}

// FingerprintLinear returns engine state whose per-iteration deltas are
// constant in steady state — clock-like quantities that advance by the
// same amount every identical iteration: the channel's busyUntil, the
// last transfer's bounds, and the sum of the per-context current-
// transfer bounds. The convergence detector (internal/core) treats each
// as its own fingerprint word so the deltas stay linear.
func (e *Engine) FingerprintLinear() (busyUntil, lastBounds, ctxBounds sim.Time) {
	busyUntil = e.xfer.busyUntil
	if e.last != nil {
		lastBounds = e.last.Start + e.last.End
	}
	for i := range e.ctxs {
		if t := e.ctxs[i].cur; t != nil {
			ctxBounds += t.Start + t.End
		}
	}
	return busyUntil, lastBounds, ctxBounds
}

// StateHash returns a hash of the engine state that must be *identical*
// (not merely advancing uniformly) across steady-state iterations:
// register-context argument slots, the half-initiation slot, the
// repeated-passing FSM and the current PID. Dead values — argument
// slots whose have-flags are clear, FSM address slots beyond the
// current index, an invalid pending pair — are excluded: they cannot
// influence any future decode, and including them would block
// convergence on harmless stale addresses. The kernel control
// registers (regSrc/regDst) are likewise excluded: every initiation
// sequence the measurement loops issue re-programs them before the
// size write that consumes them, so values carried across iterations
// are dead for those workloads (see internal/core/converge.go for the
// contract).
func (e *Engine) StateHash() uint64 { return e.stateHash(true) }

// DecodeHash is StateHash without the virtual-address state: the state
// a device access decodes against. Only walks (events) and
// initiations, never a status read, move the virtual-address part.
func (e *Engine) DecodeHash() uint64 { return e.stateHash(false) }

func (e *Engine) stateHash(withVA bool) uint64 {
	h := uint64(0x243f6a8885a308d3)
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
		h ^= h >> 29
	}
	for i := range e.ctxs {
		c := &e.ctxs[i]
		var flags uint64
		if c.haveSrc {
			flags |= 1
			mix(uint64(c.src))
		}
		if c.haveDst {
			flags |= 2
			mix(uint64(c.dst))
		}
		if c.haveSize {
			flags |= 4
			mix(c.size)
		}
		mix(flags)
	}
	if e.pending.valid {
		mix(uint64(e.pending.dst))
		mix(e.pending.size)
		mix(uint64(e.pending.pid))
		mix(1)
	} else {
		mix(0)
	}
	mix(uint64(e.seq.idx))
	for i := 0; i < e.seq.idx && i < len(e.seq.addrs); i++ {
		mix(uint64(e.seq.addrs[i]))
	}
	if e.seq.haveSize {
		mix(e.seq.size)
		mix(1)
	} else {
		mix(0)
	}
	mix(uint64(e.curPID))
	for i := range e.rings {
		r := &e.rings[i]
		if r.depth == 0 {
			mix(0)
			continue
		}
		mix(uint64(r.base))
		mix(r.depth)
		mix(r.head)
		mix(r.inFlight)
		mix(uint64(len(r.allow)))
		for _, ext := range r.allow {
			mix(uint64(ext.base))
			mix(ext.size)
		}
	}
	if withVA && e.iommu != nil {
		// Virtual-address state, gated on the IOMMU so engines without
		// one hash exactly as before. Note the IOMMU hash includes
		// monotonic words (IOTLB stats): measurement loops that move VA
		// traffic will never converge analytically — accepted; shadow-only
		// loops on an IOMMU-attached machine leave this state untouched
		// and converge as usual.
		mix(e.iommu.IOStateHash())
		mix(uint64(e.policy))
		mix(uint64(len(e.bounceFree)))
		var vaRings uint64
		for i := range e.rings {
			if e.rings[i].va {
				vaRings |= 1 << uint(i&63)
			}
		}
		mix(vaRings)
		mix(uint64(len(e.vaParked)))
		for _, w := range e.vaParked {
			mix(uint64(w.ctx))
			mix(w.srcVA)
			mix(w.dstVA)
			mix(w.off)
			mix(uint64(w.penalty))
			mix(w.faultVA)
			if w.faultWr {
				mix(1)
			} else {
				mix(0)
			}
		}
	}
	return h
}
