package dma

import (
	"fmt"

	"uldma/internal/phys"
	"uldma/internal/sim"
)

// KeyShift positions the key above the context id in the data word of a
// keyed shadow store: data = key<<KeyShift | ctx. With 64-bit stores
// this leaves ~56 bits of key — the paper's "close to 60 bits ...
// probability of guessing correctly practically zero".
const KeyShift = 8

// PackKey builds the data word a keyed shadow store carries.
func PackKey(key uint64, ctx int) uint64 {
	return key<<KeyShift | uint64(ctx)&(1<<KeyShift-1)
}

// shadowStore handles a store into the shadow window.
func (e *Engine) shadowStore(now sim.Time, off uint64, val uint64) (int64, error) {
	switch e.cfg.Mode {
	case ModePaired:
		_, pa := e.decodeShadow(off)
		e.pending = pendingPair{dst: pa, size: val, pid: e.curPID, valid: true, virt: e.vaAcc, vctx: e.vaCtx}
		e.decodeVer++
		return 0, nil

	case ModeKeyed:
		// val = key#ctx; the shadow address carries the argument.
		ctx := int(val & (1<<KeyShift - 1))
		key := val >> KeyShift
		_, pa := e.decodeShadow(off)
		if ctx >= len(e.ctxs) || e.keys[ctx] == 0 || e.keys[ctx] != key {
			// Wrong key: the argument is silently dropped — the paper's
			// protection guarantee is that a guesser cannot write into a
			// context it does not own, not that it learns why.
			e.ctr.KeyMismatches.Inc()
			return e.cfg.KeyCheckCycles, nil
		}
		e.decodeVer++
		c := &e.ctxs[ctx]
		switch {
		case !c.haveDst:
			c.dst, c.haveDst = pa, true
			c.virt, c.vctx = e.vaAcc, e.vaCtx
		case !c.haveSrc && c.virt == e.vaAcc:
			c.src, c.haveSrc = pa, true
		default:
			// Both set and no start consumed them — or the window switched
			// mid-pair: restart argument collection with this access as the
			// new destination.
			c.dst, c.haveDst = pa, true
			c.haveSrc = false
			c.virt, c.vctx = e.vaAcc, e.vaCtx
		}
		return e.cfg.KeyCheckCycles, nil

	case ModeExtended:
		// Figure 4: STORE size TO shadow(vdestination) — the access
		// carries the destination in its address bits and the size in
		// its data; the context id rides in the high address bits the
		// OS burned into the mapping.
		ctx, pa := e.decodeShadow(off)
		if ctx >= 1<<e.cfg.CtxBits {
			return 0, fmt.Errorf("dma: shadow context %d out of range", ctx)
		}
		e.decodeVer++
		if e.cfg.NoRegContexts {
			// Cheap variant: one global pending slot tagged with the
			// context id; the load's context must match.
			e.pending = pendingPair{dst: pa, size: val, pid: ctx, valid: true, virt: e.vaAcc, vctx: e.vaCtx}
			return 0, nil
		}
		c := &e.ctxs[ctx]
		c.dst, c.haveDst = pa, true
		c.size, c.haveSize = val, true
		c.virt, c.vctx = e.vaAcc, e.vaCtx
		return 0, nil

	case ModeRepeated:
		_, pa := e.decodeShadow(off)
		e.seqAccess(now, accStore, pa, val)
		return 0, nil

	case ModeMappedOut:
		return 0, fmt.Errorf("dma: mapped-out mode initiates with compare-and-exchange, not plain stores")
	}
	return 0, fmt.Errorf("dma: unhandled mode %v", e.cfg.Mode)
}

// shadowLoad handles a load from the shadow window.
func (e *Engine) shadowLoad(now sim.Time, off uint64) (uint64, int64, error) {
	switch e.cfg.Mode {
	case ModePaired:
		// Figure 2: LOAD return_status FROM shadow(vsource).
		_, src := e.decodeShadow(off)
		if !e.pending.valid {
			e.ctr.Rejected.Inc()
			return StatusFailure, 0, nil
		}
		e.decodeVer++ // every branch below consumes the pair
		if e.pidTrk && e.pending.pid != e.curPID {
			// FLASH: arguments belong to a process that is no longer
			// running; refuse rather than mix.
			e.pending.valid = false
			e.ctr.AbortedPending.Inc()
			e.ctr.Rejected.Inc()
			return StatusFailure, 0, nil
		}
		p := e.pending
		e.pending.valid = false
		if p.virt != e.vaAcc {
			// Half the pair came through the VA window and half did not:
			// the arguments are in different address spaces, refuse.
			e.ctr.Rejected.Inc()
			return StatusFailure, 0, nil
		}
		return e.initiate(now, -1, args{src: src, dst: p.dst, size: p.size, virt: p.virt, vctx: p.vctx}), 0, nil

	case ModeKeyed:
		// Loads from the shadow window are not part of the keyed
		// protocol (status lives in the register-context page); treat
		// them as protocol errors.
		e.ctr.Rejected.Inc()
		return StatusFailure, 0, nil

	case ModeExtended:
		ctx, src := e.decodeShadow(off)
		if ctx >= 1<<e.cfg.CtxBits {
			return StatusFailure, 0, fmt.Errorf("dma: shadow context %d out of range", ctx)
		}
		if e.cfg.NoRegContexts {
			p := e.pending
			if p.valid {
				e.pending.valid = false
				e.decodeVer++
			}
			if !p.valid || p.pid != ctx || p.virt != e.vaAcc {
				// Mismatched or missing pair: "the DMA operation is not
				// started and an error code is returned".
				e.ctr.Rejected.Inc()
				return StatusFailure, 0, nil
			}
			return e.initiate(now, -1, args{src: src, dst: p.dst, size: p.size, virt: p.virt, vctx: p.vctx}), 0, nil
		}
		c := &e.ctxs[ctx]
		if c.haveDst && c.haveSize {
			e.decodeVer++
			if c.virt != e.vaAcc {
				// The store and load straddled the VA window: refuse and
				// consume the half-initiation.
				c.haveDst, c.haveSize = false, false
				e.ctr.Rejected.Inc()
				return StatusFailure, 0, nil
			}
			c.haveDst, c.haveSize = false, false
			return e.initiate(now, ctx, args{src: src, dst: c.dst, size: c.size, virt: c.virt, vctx: c.vctx}), 0, nil
		}
		if c.cur != nil {
			// No half-initiation outstanding: poll the running transfer.
			return c.cur.Remaining(now), 0, nil
		}
		e.ctr.Rejected.Inc()
		return StatusFailure, 0, nil

	case ModeRepeated:
		_, pa := e.decodeShadow(off)
		return e.seqAccess(now, accLoad, pa, 0), 0, nil

	case ModeMappedOut:
		return StatusFailure, 0, fmt.Errorf("dma: mapped-out mode initiates with compare-and-exchange, not plain loads")
	}
	return StatusFailure, 0, fmt.Errorf("dma: unhandled mode %v", e.cfg.Mode)
}

// ctxStore handles a regular store into a register-context page. Per
// §3.1, every store to any offset in the page lands in the size
// register only — the source and destination registers are unreachable
// by plain stores, otherwise a process could pass unchecked physical
// addresses.
func (e *Engine) ctxStore(_ sim.Time, off uint64, val uint64) (int64, error) {
	ctx := int(off / e.cfg.PageSize)
	if ctx >= len(e.ctxs) {
		return 0, fmt.Errorf("dma: register context %d out of range", ctx)
	}
	c := &e.ctxs[ctx]
	c.size, c.haveSize = val, true
	e.decodeVer++
	return 0, nil
}

// ctxLoad reads a register-context page: it initiates the DMA when a
// full argument set is present (the fourth access of Figure 3) and
// otherwise reports transfer status — "the number of bytes that need to
// be transferred yet (-1 means failure, 0 means completed)".
func (e *Engine) ctxLoad(now sim.Time, off uint64) (uint64, int64, error) {
	ctx := int(off / e.cfg.PageSize)
	if ctx >= len(e.ctxs) {
		return 0, 0, fmt.Errorf("dma: register context %d out of range", ctx)
	}
	c := &e.ctxs[ctx]
	if c.haveDst && c.haveSrc && c.haveSize {
		c.haveDst, c.haveSrc, c.haveSize = false, false, false
		e.decodeVer++
		// Keyed-mode arguments collected through the VA window are
		// virtual (the pair rule in shadowStore keeps src/dst in the
		// same window).
		return e.initiate(now, ctx, args{src: c.src, dst: c.dst, size: c.size, virt: c.virt, vctx: c.vctx}), 0, nil
	}
	if c.cur != nil {
		return c.cur.Remaining(now), 0, nil
	}
	return StatusFailure, 0, nil
}

// controlStore handles kernel writes to the control page.
func (e *Engine) controlStore(now sim.Time, off uint64, val uint64) (int64, error) {
	switch off {
	case RegSource:
		e.regSrc = val
	case RegDest:
		e.regDst = val
	case RegSize:
		// Figure 1: writing the size starts the kernel-programmed DMA.
		e.start(now, args{src: phys.Addr(e.regSrc), dst: phys.Addr(e.regDst), size: val})
	case RegPID:
		e.SetCurrentPID(int(val))
	case RegAbort:
		e.AbortPending()
	default:
		return 0, fmt.Errorf("dma: write to unknown control register %#x", off)
	}
	return 0, nil
}

// controlLoad reads the control page.
func (e *Engine) controlLoad(now sim.Time, off uint64) (uint64, int64, error) {
	switch off {
	case RegSource:
		return e.regSrc, 0, nil
	case RegDest:
		return e.regDst, 0, nil
	case RegStatus, RegLastSt:
		if e.last == nil {
			return StatusFailure, 0, nil
		}
		if e.last.Failed {
			return StatusFailure, 0, nil
		}
		return e.last.Remaining(now), 0, nil
	case RegPID:
		return uint64(e.curPID), 0, nil
	case RegStarted:
		return e.ctr.Started.Value(), 0, nil
	default:
		return 0, 0, fmt.Errorf("dma: read of unknown control register %#x", off)
	}
}

// atomicOp executes a §3.5 user-level atomic operation: one locked bus
// transaction, operation encoded in the address, operand in the data.
func (e *Engine) atomicOp(off uint64, size phys.AccessSize, val uint64) (uint64, int64, error) {
	op := int(off >> e.cfg.MemBits)
	pa := phys.Addr(off & (1<<e.cfg.MemBits - 1))
	if op > AtomicCAS {
		return 0, 0, fmt.Errorf("dma: unknown atomic op %d", op)
	}
	if e.cfg.RemoteBase != 0 && pa >= e.cfg.RemoteBase {
		// Atomic operation on another node's memory: the fabric owns
		// the round trip.
		rh, ok := e.remote.(RemoteAtomicHandler)
		if !ok {
			return 0, 0, fmt.Errorf("dma: fabric does not support remote atomics")
		}
		node := int((pa - e.cfg.RemoteBase) >> e.cfg.NodeShift)
		raddr := phys.Addr(uint64(pa-e.cfg.RemoteBase) & (1<<e.cfg.NodeShift - 1))
		e.ctr.AtomicOps.Inc()
		old, err := rh.RMWRemote(node, raddr, op, size, val)
		return old, 1, err
	}
	e.ctr.AtomicOps.Inc()
	old, err := ApplyAtomic(e.mem, pa, op, size, val)
	if err != nil {
		return 0, 0, err
	}
	return old, 1, nil
}

// ApplyAtomic performs one engine atomic operation on mem: the shared
// primitive of the local atomic unit and of fabrics implementing
// RemoteAtomicHandler. For AtomicCAS, val packs (expected<<32 | new)
// and the cell is 32 bits.
func ApplyAtomic(mem *phys.Memory, pa phys.Addr, op int, size phys.AccessSize, val uint64) (uint64, error) {
	old, err := mem.Read(pa, size)
	if err != nil {
		return 0, fmt.Errorf("dma: atomic target: %w", err)
	}
	switch op {
	case AtomicAdd:
		err = mem.Write(pa, size, old+val)
	case AtomicSwap:
		err = mem.Write(pa, size, val)
	case AtomicCAS:
		expected, newval := val>>32, val&0xffffffff
		if old&0xffffffff == expected {
			err = mem.Write(pa, size, newval)
		}
		old &= 0xffffffff
	default:
		return 0, fmt.Errorf("dma: unknown atomic op %d", op)
	}
	if err != nil {
		return 0, err
	}
	return old, nil
}

// mappedOutInitiate is SHRIMP-1: one compare-and-exchange at
// shadow(vsource) with the size as data starts a DMA to the source
// page's mapped-out counterpart. Returns the initiation status as the
// exchange's old value.
func (e *Engine) mappedOutInitiate(now sim.Time, off uint64, size uint64) (uint64, int64, error) {
	_, src := e.decodeShadow(off)
	pageBase := phys.Addr(uint64(src) &^ (e.cfg.PageSize - 1))
	dstBase, ok := e.pageMap[pageBase]
	if !ok {
		e.ctr.Rejected.Inc()
		return StatusFailure, 0, nil
	}
	dst := dstBase + (src - pageBase)
	if !inBounds(uint64(src)%e.cfg.PageSize, size, e.cfg.PageSize) {
		// A mapped-out DMA cannot cross its page: the mapping is
		// per-page (the restrictiveness §2.4 criticises).
		e.ctr.Rejected.Inc()
		return StatusFailure, 0, nil
	}
	return e.initiate(now, -1, args{src: src, dst: dst, size: size}), 0, nil
}

// --- repeated-passing sequence FSM (§3.3) ---

type accKind uint8

const (
	accStore accKind = iota
	accLoad
)

// seqFSM watches the global stream of shadow accesses for the
// repeated-passing pattern. It deliberately has no notion of which
// process issued an access — that is the whole point of the scheme: the
// pattern itself proves single-process origin (for SeqLen 5; the 3- and
// 4-access variants are implemented so the Figure 5/6 attacks can be
// reproduced).
type seqFSM struct {
	pattern  []accKind
	idx      int
	addrs    [5]phys.Addr
	size     uint64
	haveSize bool
	// virt/vctx: window tag of the sequence's FIRST access; a mid-
	// sequence window switch is out-of-order and resets the FSM.
	virt bool
	vctx int
}

func (s *seqFSM) init(seqLen int) {
	switch seqLen {
	case 3:
		// Dubnicki's sequence: LOAD s, STORE d(size), LOAD s.
		s.pattern = []accKind{accLoad, accStore, accLoad}
	case 4:
		// STORE d, LOAD s, STORE d, LOAD s.
		s.pattern = []accKind{accStore, accLoad, accStore, accLoad}
	default:
		// Figure 7: STORE d, LOAD s, STORE d, LOAD s, LOAD d.
		s.pattern = []accKind{accStore, accLoad, accStore, accLoad, accLoad}
	}
}

func (s *seqFSM) reset() {
	s.idx = 0
	s.haveSize = false
}

// srcDst extracts the transfer arguments once the pattern completes.
func (s *seqFSM) srcDst() (src, dst phys.Addr) {
	if s.pattern[0] == accLoad { // 3-access variant: L s, S d, L s
		return s.addrs[0], s.addrs[1]
	}
	return s.addrs[1], s.addrs[0] // 4/5-access variants: S d, L s, ...
}

// seqAccess feeds one shadow access into the FSM and returns the value
// a load at this position observes (stores have no return value; their
// result is ignored by the caller).
func (e *Engine) seqAccess(now sim.Time, kind accKind, pa phys.Addr, data uint64) uint64 {
	s := &e.seq
	e.decodeVer++
	ok := kind == s.pattern[s.idx] &&
		(s.idx == 0 || s.virt == e.vaAcc) &&
		(s.idx < 2 || pa == s.addrs[s.idx-2]) &&
		(kind != accStore || !s.haveSize || data == s.size)
	if !ok {
		// "If it sees anything out of this order, the DMA engine resets
		// itself" — and the offending access may begin a new sequence.
		// A mid-sequence window switch (shadow <-> VA) counts as out of
		// order: the addresses would be in different spaces.
		s.reset()
		e.ctr.SeqResets.Inc()
		if kind == s.pattern[0] {
			s.addrs[0] = pa
			if kind == accStore {
				s.size, s.haveSize = data, true
			}
			s.virt, s.vctx = e.vaAcc, e.vaCtx
			s.idx = 1
			return StatusAccepted
		}
		return StatusFailure
	}
	s.addrs[s.idx] = pa
	if s.idx == 0 {
		s.virt, s.vctx = e.vaAcc, e.vaCtx
	}
	if kind == accStore && !s.haveSize {
		s.size, s.haveSize = data, true
	}
	s.idx++
	if s.idx < len(s.pattern) {
		return StatusAccepted
	}
	// Pattern complete: start the transfer.
	a := args{size: s.size, virt: s.virt, vctx: s.vctx}
	a.src, a.dst = s.srcDst()
	s.reset()
	return e.initiate(now, -1, a)
}
