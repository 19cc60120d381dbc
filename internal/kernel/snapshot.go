package kernel

// World snapshot/restore support (see internal/machine). The kernel's
// mutable state is bookkeeping — the ASID and frame allocators, the
// register-context ownership tables, the key RNG position, the
// counters — plus three installation flags (SHRIMP-2 hook, FLASH hook,
// PAL DMA routine) that a clone re-enacts against its own runner and
// engine rather than sharing closures bound to the origin.

import (
	"cmp"
	"fmt"
	"slices"

	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
)

// Snapshot captures a Kernel's mutable state. See Kernel.Snapshot.
type Snapshot struct {
	rngState  uint64
	nextASID  int
	nextFrame phys.Addr
	ctxOwner  []proc.PID
	keys      []uint64
	procCtx   map[proc.PID]int
	ctxUse    []uint64
	useTick   uint64
	shrimp2   bool
	flash     bool
	palDMA    bool
	ctr       Counters

	// Pager state (paging.go). Pages are deep-copied: live records
	// mutate after the snapshot.
	pagerOn       bool
	pagerBudget   int
	pagerPageIn   sim.Time
	pagerResident int
	pagerTick     uint64
	pagerSeq      uint64
	pagerPages    map[pagerKey]pagerPage
}

// SHRIMP2Hook reports whether the SHRIMP-2 context-switch hook was
// installed at snapshot time (the machine layer re-enables it on
// clones).
func (s *Snapshot) SHRIMP2Hook() bool { return s.shrimp2 }

// FLASHHook reports whether the FLASH context-switch hook was installed
// at snapshot time.
func (s *Snapshot) FLASHHook() bool { return s.flash }

// PALDMAInstalled reports whether the user_level_dma PAL routine was
// installed at snapshot time.
func (s *Snapshot) PALDMAInstalled() bool { return s.palDMA }

// Snapshot captures the kernel's bookkeeping. It fails if any process
// is queued for a register context: the queue holds a blocked process,
// which contradicts the quiescence a snapshot requires.
func (k *Kernel) Snapshot() (*Snapshot, error) {
	if len(k.ctxWaiters) != 0 {
		return nil, fmt.Errorf("kernel: cannot snapshot with %d processes queued for a register context", len(k.ctxWaiters))
	}
	s := &Snapshot{
		rngState:  k.rng.State(),
		nextASID:  k.nextASID,
		nextFrame: k.nextFrame,
		ctxOwner:  append([]proc.PID(nil), k.ctxOwner...),
		keys:      append([]uint64(nil), k.keys...),
		procCtx:   make(map[proc.PID]int, len(k.procCtx)),
		ctxUse:    append([]uint64(nil), k.ctxUse...),
		useTick:   k.useTick,
		shrimp2:   k.shrimp2Hook,
		flash:     k.flashHook,
		palDMA:    k.palDMA,
		ctr:       k.ctr,
	}
	for pid, ctx := range k.procCtx {
		s.procCtx[pid] = ctx
	}
	s.pagerOn = k.pager.enabled
	s.pagerBudget = k.pager.budget
	s.pagerPageIn = k.pager.pageIn
	s.pagerResident = k.pager.resident
	s.pagerTick = k.pager.tick
	s.pagerSeq = k.pager.seq
	if len(k.pager.pages) > 0 {
		s.pagerPages = make(map[pagerKey]pagerPage, len(k.pager.pages))
		for key, pg := range k.pager.pages {
			cp := *pg
			cp.prev, cp.next = nil, nil // Restore relinks from (lastUse, seq)
			s.pagerPages[key] = cp
		}
	}
	return s, nil
}

// Restore rewinds the kernel's bookkeeping to the snapshot. Hook and
// PAL *installations* are not performed here: for the in-place path
// the runner truncates its hook chains back to the snapshot lengths,
// and for the clone path the machine layer calls EnableSHRIMP2Hook /
// EnableFLASHHook / InstallPALDMA on the clone before restoring, so
// the closures are bound to the clone's own kernel.
func (k *Kernel) Restore(s *Snapshot) error {
	if len(s.ctxOwner) != len(k.ctxOwner) {
		return fmt.Errorf("kernel: restore: snapshot has %d register contexts, kernel has %d", len(s.ctxOwner), len(k.ctxOwner))
	}
	k.rng.SetState(s.rngState)
	k.nextASID = s.nextASID
	k.nextFrame = s.nextFrame
	copy(k.ctxOwner, s.ctxOwner)
	copy(k.keys, s.keys)
	for pid := range k.procCtx {
		delete(k.procCtx, pid)
	}
	for pid, ctx := range s.procCtx {
		k.procCtx[pid] = ctx
	}
	copy(k.ctxUse, s.ctxUse)
	k.useTick = s.useTick
	k.shrimp2Hook = s.shrimp2
	k.flashHook = s.flash
	k.palDMA = s.palDMA
	k.ctxWaiters = k.ctxWaiters[:0]
	k.ctr = s.ctr
	k.pager.enabled = s.pagerOn
	k.pager.budget = s.pagerBudget
	k.pager.pageIn = s.pagerPageIn
	k.pager.resident = s.pagerResident
	k.pager.tick = s.pagerTick
	k.pager.seq = s.pagerSeq
	for key := range k.pager.pages {
		delete(k.pager.pages, key)
	}
	k.pager.lru = pagerLRU{}
	if len(s.pagerPages) == 0 {
		return nil
	}
	if k.pager.pages == nil {
		k.pager.pages = make(map[pagerKey]*pagerPage, len(s.pagerPages))
	}
	resident := make([]*pagerPage, 0, s.pagerResident)
	for key, pg := range s.pagerPages {
		cp := pg
		k.pager.pages[key] = &cp
		if cp.resident {
			resident = append(resident, &cp)
		}
	}
	slices.SortFunc(resident, func(a, b *pagerPage) int {
		return cmp.Or(cmp.Compare(a.lastUse, b.lastUse), cmp.Compare(a.seq, b.seq))
	})
	for _, pg := range resident {
		k.pager.lru.pushBack(pg)
	}
	return nil
}
