package kernel

// Virtual-address DMA support: the kernel side of internal/iommu. The
// kernel owns the device page tables — user code never maps a device
// translation directly; the world builders map each page through
// MapIOAS below, outside the timed loop — and it implements
// dma.FaultResolver, the service the engine calls when a transfer
// faults mid-flight.
//
// Two regimes:
//
//   - Pager disabled (default): every MapIO is permanently resident.
//     ResolveFault on a mapped page returns instantly (the fault was an
//     IOTLB-level race, already healed); on an unmapped page it returns
//     dma.ErrFaultPending, parking the transfer until someone maps the
//     page and calls Engine.ResumeFaulted — the manual demand-paging
//     path the snapshot-fidelity tests drive.
//
//   - Pager enabled (EnablePager): at most `budget` device pages are
//     resident at once. MapIO registers a page; making it resident may
//     evict the least-recently-used unpinned resident page
//     (iommu.Unmap — which also invalidates its IOTLB entries).
//     ResolveFault pages the victim's frame back in after a fixed
//     page-in latency. Pins (PinRange, which the engine's RecoverPin
//     policy calls) make pages ineligible for eviction. Eviction order
//     is deterministic: strictly (lastUse, seq)-minimal among unpinned
//     residents. The resident pages sit on an intrusive LRU list in
//     that order, so a victim is the first unpinned page from its head
//     rather than the result of a scan over every registered page.
//
// All pager state is pure data keyed by (ctx, deviceVA) — no pointers
// into process address spaces — so it snapshots by value and folds into
// machine.Fingerprint through PagerStateHash. The list links are the
// one exception: they are derived from (lastUse, seq), left out of both,
// and rebuilt by Restore.

import (
	"fmt"

	"uldma/internal/dma"
	"uldma/internal/iommu"
	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// pagerKey names one device page: translation context + page-aligned
// device virtual address.
type pagerKey struct {
	ctx int
	va  uint64
}

// pagerPage is the pager's record of one registered device page.
type pagerPage struct {
	key      pagerKey
	frame    phys.Addr
	lastUse  uint64 // pager tick of last touch (resident pages only)
	seq      uint64 // registration order, the lastUse tiebreak
	pinned   int32  // pin count; >0 blocks eviction
	prot     vm.Prot
	resident bool

	prev, next *pagerPage // resident LRU list links (nil when not resident)
}

// pagerLRU is the intrusive list of resident pages, least recently used
// at the head. touch moves a page to the tail, so the list stays sorted
// by (lastUse, seq) without a scan; the records are the map's, so the
// list allocates nothing.
type pagerLRU struct {
	head, tail *pagerPage
}

func (l *pagerLRU) linked(pg *pagerPage) bool { return pg.prev != nil || l.head == pg }

func (l *pagerLRU) remove(pg *pagerPage) {
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else {
		l.head = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else {
		l.tail = pg.prev
	}
	pg.prev, pg.next = nil, nil
}

func (l *pagerLRU) pushBack(pg *pagerPage) {
	pg.prev, pg.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = pg
	} else {
		l.head = pg
	}
	l.tail = pg
}

// pagerState is the kernel's paging/eviction model. Its counters are
// the Pager* cells of the kernel's Counters.
type pagerState struct {
	enabled  bool
	budget   int      // max resident device pages (0 with enabled = unlimited)
	pageIn   sim.Time // latency charged per page-in
	pages    map[pagerKey]*pagerPage
	resident int
	tick     uint64 // LRU clock
	seq      uint64 // registration counter
	lru      pagerLRU
}

// SetIOMMU attaches the machine's IOMMU. The machine layer calls it
// during assembly, before any MapIO.
func (k *Kernel) SetIOMMU(io *iommu.IOMMU) {
	k.iommu = io
	if k.pager.pages == nil {
		k.pager.pages = make(map[pagerKey]*pagerPage)
	}
}

// EnablePager turns on the paging/eviction model: at most budget device
// pages resident, page-ins charged pageInTime. Must be called before
// traffic; enabling it re-registers already-mapped pages as resident.
func (k *Kernel) EnablePager(budget int, pageInTime sim.Time) error {
	if k.iommu == nil {
		return fmt.Errorf("kernel: EnablePager: no IOMMU attached")
	}
	if budget < 1 {
		return fmt.Errorf("kernel: EnablePager: budget %d", budget)
	}
	k.pager.enabled = true
	k.pager.budget = budget
	k.pager.pageIn = pageInTime
	return nil
}

// RegisterPagerMetrics registers the pager's cells. The machine calls
// this only on IOMMU-equipped worlds, keeping other registry dumps
// byte-identical.
func (k *Kernel) RegisterPagerMetrics(r *obs.Registry) {
	r.RegisterCounter("kernel.pager_evictions", &k.ctr.PagerEvictions)
	r.RegisterCounter("kernel.pager_page_ins", &k.ctr.PagerPageIns)
	r.RegisterCounter("kernel.pager_pins", &k.ctr.PagerPins)
}

// MapIO installs a device translation: ctx's device VA va -> frame with
// prot. With the pager disabled the mapping is immediately and
// permanently resident. With it enabled the page is registered and made
// resident, evicting an LRU victim if the budget is full.
func (k *Kernel) MapIO(ctx int, va uint64, frame phys.Addr, prot vm.Prot) error {
	if k.iommu == nil {
		return fmt.Errorf("kernel: MapIO: no IOMMU attached")
	}
	base := va &^ (k.PageSize() - 1)
	if !k.pager.enabled {
		return k.iommu.Map(ctx, base, frame, prot)
	}
	key := pagerKey{ctx: ctx, va: base}
	pg := k.pager.pages[key]
	if pg == nil {
		k.pager.seq++
		pg = &pagerPage{key: key, seq: k.pager.seq}
		k.pager.pages[key] = pg
	}
	pg.frame, pg.prot = frame, prot
	if pg.resident {
		// Re-map in place (frame or protection change).
		return k.iommu.Map(ctx, base, frame, prot)
	}
	return k.makeResident(key, pg)
}

// MapIOAS is the virtual-address analogue of MapShadowAS: it wires the
// already-mapped user page at va for IOMMU-translated initiation. The
// device VA is the user VA itself (masked to MemBits) — the identity
// convention lets unchanged protocol instruction sequences initiate
// through the VA window — and the user-visible shadow alias ShadowVA(va)
// points at the engine's VA window instead of the physical shadow
// window, so a protocol store to shadow(v) carries a device VIRTUAL
// address the engine translates at walk time.
func (k *Kernel) MapIOAS(as *vm.AddressSpace, ctx int, va vm.VAddr) error {
	if k.iommu == nil {
		return fmt.Errorf("kernel: MapIOAS: no IOMMU attached")
	}
	base := as.PageBase(va)
	pte, ok := as.Lookup(base)
	if !ok {
		return fmt.Errorf("kernel: MapIOAS: %v not mapped", va)
	}
	cfg := k.engine.Config()
	devVA := uint64(base) & (uint64(1)<<cfg.MemBits - 1)
	prot := pte.Prot
	if cfg.RemoteBase != 0 && pte.Frame >= cfg.RemoteBase {
		// Same rule as MapShadowAS: remote destinations must also accept
		// the protocol's status loads.
		prot = vm.Read | vm.Write
	}
	if err := k.MapIO(ctx, devVA, pte.Frame, prot); err != nil {
		return err
	}
	return as.Map(ShadowVA(base), cfg.VAShadow(devVA, ctx), prot)
}

// makeResident brings a registered page in, evicting if the budget is
// full. The caller has already updated pg.frame/prot.
func (k *Kernel) makeResident(key pagerKey, pg *pagerPage) error {
	if k.pager.resident >= k.pager.budget {
		if err := k.evictOne(); err != nil {
			return err
		}
	}
	if err := k.iommu.Map(key.ctx, key.va, pg.frame, pg.prot); err != nil {
		return err
	}
	pg.resident = true
	k.pager.resident++
	k.touch(pg)
	return nil
}

// victim returns the (lastUse, seq)-minimal unpinned resident page, or
// nil: the first unpinned page from the LRU list's head.
func (k *Kernel) victim() *pagerPage {
	for pg := k.pager.lru.head; pg != nil; pg = pg.next {
		if pg.pinned == 0 {
			return pg
		}
	}
	return nil
}

// evictOne removes the (lastUse, seq)-minimal unpinned resident page.
func (k *Kernel) evictOne() error {
	victim := k.victim()
	if victim == nil {
		return fmt.Errorf("kernel: pager: all %d resident device pages pinned", k.pager.resident)
	}
	if err := k.iommu.Unmap(victim.key.ctx, victim.key.va); err != nil {
		return err
	}
	k.pager.lru.remove(victim)
	victim.resident = false
	k.pager.resident--
	k.ctr.PagerEvictions.Inc()
	return nil
}

// touch stamps pg, a resident page, as the most recently used: it
// moves to the LRU list's tail.
func (k *Kernel) touch(pg *pagerPage) {
	k.pager.tick++
	pg.lastUse = k.pager.tick
	if k.pager.lru.linked(pg) {
		k.pager.lru.remove(pg)
	}
	k.pager.lru.pushBack(pg)
}

// ResolveFault implements dma.FaultResolver: make (ctx, va) resident.
// Pager disabled: a mapped page resolves instantly (the translation
// exists; the fault was transient), an unmapped one returns
// dma.ErrFaultPending so the engine parks the transfer for
// ResumeFaulted. Pager enabled: page the registered frame back in after
// the page-in latency, evicting if necessary.
func (k *Kernel) ResolveFault(ctx int, va uint64, write bool) (sim.Time, error) {
	if k.iommu == nil {
		return 0, fmt.Errorf("kernel: ResolveFault: no IOMMU attached")
	}
	base := va &^ (k.PageSize() - 1)
	if !k.pager.enabled {
		if _, ok := k.iommu.Lookup(ctx, base); ok {
			return 0, nil
		}
		return 0, dma.ErrFaultPending
	}
	key := pagerKey{ctx: ctx, va: base}
	pg := k.pager.pages[key]
	if pg == nil {
		k.ctr.Faults.Inc()
		return 0, fmt.Errorf("kernel: device page ctx=%d va=%#x never mapped", ctx, base)
	}
	if write && !pg.prot.Can(vm.Write) {
		k.ctr.Faults.Inc()
		return 0, fmt.Errorf("kernel: device page ctx=%d va=%#x not writable", ctx, base)
	}
	if pg.resident {
		k.touch(pg)
		return 0, nil
	}
	if err := k.makeResident(key, pg); err != nil {
		k.ctr.Faults.Inc()
		return 0, err
	}
	k.ctr.PagerPageIns.Inc()
	return k.pager.pageIn, nil
}

// PinRange implements dma.FaultResolver: pre-fault and pin every page
// of [va, va+size). Pinned pages cannot be evicted. The latency is the
// sum of page-ins incurred. On failure nothing stays pinned.
func (k *Kernel) PinRange(ctx int, va, size uint64, write bool) (sim.Time, error) {
	if k.iommu == nil {
		return 0, fmt.Errorf("kernel: PinRange: no IOMMU attached")
	}
	ps := k.PageSize()
	first := va &^ (ps - 1)
	var total sim.Time
	for base := first; base < va+size; base += ps {
		lat, err := k.pinOne(ctx, base, write)
		if err != nil {
			for b := first; b < base; b += ps {
				k.unpinOne(ctx, b)
			}
			return 0, err
		}
		total += lat
	}
	return total, nil
}

func (k *Kernel) pinOne(ctx int, base uint64, write bool) (sim.Time, error) {
	if !k.pager.enabled {
		pte, ok := k.iommu.Lookup(ctx, base)
		if !ok {
			return 0, fmt.Errorf("kernel: PinRange: device page ctx=%d va=%#x not mapped", ctx, base)
		}
		if write && !pte.Prot.Can(vm.Write) {
			return 0, fmt.Errorf("kernel: PinRange: device page ctx=%d va=%#x not writable", ctx, base)
		}
		k.ctr.PagerPins.Inc()
		return 0, nil
	}
	lat, err := k.ResolveFault(ctx, base, write)
	if err != nil {
		return 0, err
	}
	k.pager.pages[pagerKey{ctx: ctx, va: base}].pinned++
	k.ctr.PagerPins.Inc()
	return lat, nil
}

// UnpinRange implements dma.FaultResolver: release the pins PinRange
// took on [va, va+size).
func (k *Kernel) UnpinRange(ctx int, va, size uint64) {
	if k.iommu == nil {
		return
	}
	ps := k.PageSize()
	for base := va &^ (ps - 1); base < va+size; base += ps {
		k.unpinOne(ctx, base)
	}
}

func (k *Kernel) unpinOne(ctx int, base uint64) {
	if !k.pager.enabled {
		return
	}
	if pg := k.pager.pages[pagerKey{ctx: ctx, va: base}]; pg != nil && pg.pinned > 0 {
		pg.pinned--
	}
}

// PagerStateHash folds the pager's complete state into one word.
// It returns 0 iff no IOMMU is attached AND the pager map is empty —
// i.e. exactly the pre-existing worlds — so machine.Fingerprint can mix
// it conditionally without perturbing any existing fingerprint. The
// per-page fold is commutative (map iteration order must not matter).
func (k *Kernel) PagerStateHash() uint64 {
	if k.iommu == nil && len(k.pager.pages) == 0 {
		return 0
	}
	h := uint64(0x6b65726e70616765) // "kernpage"
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
		h ^= h >> 29
	}
	if k.pager.enabled {
		mix(1)
	} else {
		mix(0)
	}
	mix(uint64(k.pager.budget))
	mix(uint64(k.pager.pageIn))
	mix(uint64(k.pager.resident))
	mix(k.pager.tick)
	mix(k.pager.seq)
	mix(k.ctr.PagerEvictions.Value())
	mix(k.ctr.PagerPageIns.Value())
	mix(k.ctr.PagerPins.Value())
	var pagesFold uint64
	for key, pg := range k.pager.pages {
		ph := uint64(0x9e3779b97f4a7c15)
		pmix := func(v uint64) {
			ph ^= v
			ph *= 0x100000001b3
			ph ^= ph >> 29
		}
		pmix(uint64(key.ctx))
		pmix(key.va)
		pmix(uint64(pg.frame))
		pmix(uint64(pg.prot))
		var flags uint64
		if pg.resident {
			flags = 1
		}
		pmix(flags)
		pmix(uint64(pg.pinned))
		pmix(pg.lastUse)
		pmix(pg.seq)
		pagesFold += ph // commutative across map order
	}
	mix(pagesFold)
	return h
}
