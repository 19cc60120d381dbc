package dma

// World snapshot/restore support (see internal/machine). A snapshot is
// taken with the world quiescent — event queue settled, every accepted
// transfer delivered or parked on a fault. Transfer records are pooled
// and recycled, so a snapshot never shares one: it copies each live
// record (e.last, every context's cur, every parked transfer) by value,
// and Restore rebuilds them from the restoring engine's own pool.
// Template snapshots shared by many clones therefore stay immutable.

import (
	"fmt"

	"uldma/internal/phys"
	"uldma/internal/sim"
)

// EngineSnapshot captures an Engine's mutable state. See
// Engine.Snapshot.
type EngineSnapshot struct {
	ctxs    []regContext // cur cleared: see cur
	keys    []uint64
	pending pendingPair
	pidTrk  bool
	curPID  int
	seq     seqFSM
	pageMap map[phys.Addr]phys.Addr
	regSrc  uint64
	regDst  uint64
	busy    sim.Time
	audit   audit
	rings   []ringState
	ctr     Counters

	// recs holds a value copy of every distinct live record; last, cur
	// (one per context) and each parked transfer index it, -1 for none.
	recs []Transfer
	last int
	cur  []int

	policy     RecoveryPolicy
	bounceFree []int32
	parked     []vaParkedSnap
}

// vaParkedSnap captures one fault-parked walker by value (its engine,
// transfer, buffer and fire closure cleared) and its transfer as an
// index in EngineSnapshot.recs.
type vaParkedSnap struct {
	w   vaWalker
	rec int
}

// Snapshot captures the engine's register contexts, key table,
// half-initiation slot, sequence FSM, mapped-out table, control
// registers, live transfer records, audit state and counters. Engines
// attached to a cluster fabric refuse: in-flight link traffic lives
// outside the engine.
func (e *Engine) Snapshot() (*EngineSnapshot, error) {
	if e.remote != nil {
		return nil, fmt.Errorf("dma: cannot snapshot an engine attached to a cluster fabric")
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
		busy:    e.xfer.busyUntil,
		audit:   e.audit,
		rings:   append([]ringState(nil), e.rings...),
		ctr:     e.ctr,
		cur:     make([]int, len(e.ctxs)),
	}
	var seen []*Transfer
	index := func(t *Transfer) int {
		if t == nil {
			return -1
		}
		for i, p := range seen {
			if p == t {
				return i
			}
		}
		seen = append(seen, t)
		v := *t
		v.e, v.refs, v.vw, v.data, v.fire = nil, 0, nil, nil, nil
		s.recs = append(s.recs, v)
		return len(s.recs) - 1
	}
	s.last = index(e.last)
	for i := range s.ctxs {
		s.cur[i] = index(s.ctxs[i].cur)
		s.ctxs[i].cur = nil
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
		ps := vaParkedSnap{w: *w, rec: index(w.t)}
		ps.w.e, ps.w.t, ps.w.fire = nil, nil, nil
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
	// Release the live records and the parked set: their transfers are
	// being discarded wholesale.
	e.point(&e.last, nil)
	for i := range e.ctxs {
		e.point(&e.ctxs[i].cur, nil)
	}
	for _, w := range e.vaParked {
		e.releaseVW(w)
	}
	e.vaParked = e.vaParked[:0]

	copy(e.ctxs, s.ctxs)
	copy(e.keys, s.keys)
	e.pending = s.pending
	e.pidTrk = s.pidTrk
	e.curPID = s.curPID
	e.seq = s.seq
	e.decodeVer++
	for k := range e.pageMap {
		delete(e.pageMap, k)
	}
	for k, v := range s.pageMap {
		e.pageMap[k] = v
	}
	e.regSrc, e.regDst = s.regSrc, s.regDst
	e.xfer.busyUntil = s.busy
	e.audit = s.audit
	for i := range e.rings {
		r := s.rings[i]
		r.allow = append(e.rings[i].allow[:0], r.allow...)
		e.rings[i] = r
	}
	e.ctr = s.ctr
	e.policy = s.policy
	e.bounceFree = append(e.bounceFree[:0], s.bounceFree...)

	// Rebuild every live record from the pool, then re-point e.last, the
	// contexts' cur and the parked walkers at the copies.
	recs := make([]*Transfer, len(s.recs))
	for i := range s.recs {
		t := e.newTransfer()
		fire := t.fire
		*t = s.recs[i]
		t.e, t.fire = e, fire
		recs[i] = t
	}
	if s.last >= 0 {
		e.point(&e.last, recs[s.last])
	}
	for i, k := range s.cur {
		if k >= 0 {
			e.point(&e.ctxs[i].cur, recs[k])
		}
	}
	for _, ps := range s.parked {
		w := e.getVW()
		fire := w.fire
		*w = ps.w
		w.e, w.t, w.fire = e, recs[ps.rec], fire
		w.t.vw = w
		w.t.refs++
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

// stateHash is StateHash, or with withVA false the decode state alone
// (the state DecodeVersion versions): only walks (events) and
// initiations, never a status read, move the virtual-address part.
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
		// A zero where the virtual-ring bitmap was: it keeps every IOMMU
		// fingerprint byte-identical.
		mix(0)
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
