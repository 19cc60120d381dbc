package vm

import (
	"fmt"

	"uldma/internal/obs"
	"uldma/internal/phys"
)

// TLB is a small fully-associative translation look-aside buffer with LRU
// replacement. Entries are tagged by (ASID, VPN) — like the Alpha's
// address-space numbers — so a context switch does not require a flush,
// though Flush is provided for machines configured without ASN tagging.
//
// The TLB exists in the model because translation cost is part of the
// paper's argument: the kernel-level DMA path pays a software
// virtual_to_physical per argument, while user-level paths reuse TLB
// entries the shadow mappings installed once at setup time.
type TLB struct {
	entries []tlbEntry
	tick    uint64
	ctr     TLBCounters
	// last is the index of the most recently hit or filled entry: a
	// one-entry L0 in front of the associative scan. Guest code streams
	// through buffers page by page, so the vast majority of lookups hit
	// the same entry as their predecessor; checking it first turns the
	// common case from an O(entries) scan into one tag compare. The
	// index is only a hint — every use re-validates the full
	// (asid, vpn, gen) tag, so stale hints are harmless.
	last int
	// ver moves on every change to the entries' translations: a fill,
	// a Flush, a Restore. Hits and Skip only restamp LRU times, so they
	// leave it alone. Equal versions imply identical entries.
	ver uint64
}

type tlbEntry struct {
	asid  int
	vpn   uint64
	gen   uint64 // address-space generation when cached
	pte   PTE
	used  uint64 // LRU timestamp
	valid bool
}

// TLBCounters counts hit/miss traffic: the TLB's live obs cells,
// copied by value into snapshots so they rewind with the world.
type TLBCounters struct {
	Hits   obs.Counter
	Misses obs.Counter
}

// NewTLB creates a TLB with the given number of entries (the 21064 had a
// 32-entry data TLB; the presets follow it).
func NewTLB(size int) *TLB {
	if size < 1 {
		panic(fmt.Sprintf("vm: TLB size %d", size))
	}
	return &TLB{entries: make([]tlbEntry, size)}
}

// Counters returns the hit/miss counters.
func (t *TLB) Counters() TLBCounters { return t.ctr }

// RegisterMetrics publishes the counters as prefix+"hits" and
// prefix+"misses" (the CPU's TLB is "tlb.", the IOMMU's IOTLB
// "iommu.iotlb_").
func (t *TLB) RegisterMetrics(r *obs.Registry, prefix string) {
	r.RegisterCounter(prefix+"hits", &t.ctr.Hits)
	r.RegisterCounter(prefix+"misses", &t.ctr.Misses)
}

// Flush invalidates every entry.
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
	t.ver++
}

// Version returns the mutation counter: it moves on every fill, Flush
// and Restore and never on a hit, so two reads that agree bracket a
// stretch in which no entry's translation changed. It is not part of a
// snapshot; a Restore moves it forward like any other change.
func (t *TLB) Version() uint64 { return t.ver }

// Translate resolves va in as, filling from the page table on a miss.
// hit reports whether the translation was served from the TLB; the CPU
// charges its page-table-walk cost when hit is false. Protection is
// checked on every access (rights live in the PTE, cached or not).
func (t *TLB) Translate(as *AddressSpace, va VAddr, access Access) (pa phys.Addr, hit bool, err error) {
	t.tick++
	vpn := uint64(va) / as.PageSize()
	// L0 fast path: re-check the last entry used before scanning. The
	// outcome (entry found, counters, LRU stamp) is identical to the scan
	// finding the same entry — at most one entry can carry a given
	// (asid, vpn, gen) tag, because fills happen only on misses.
	if e := &t.entries[t.last]; e.valid && e.vpn == vpn && e.asid == as.ASID() && e.gen == as.Generation() {
		if !e.pte.Prot.Can(access.Need()) {
			return 0, true, &Fault{VA: va, Access: access, Kind: FaultProtection, ASID: as.ASID()}
		}
		e.used = t.tick
		t.ctr.Hits.Inc()
		return e.pte.Frame + phys.Addr(uint64(va)%as.PageSize()), true, nil
	}
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.asid == as.ASID() && e.vpn == vpn && e.gen == as.Generation() {
			if !e.pte.Prot.Can(access.Need()) {
				return 0, true, &Fault{VA: va, Access: access, Kind: FaultProtection, ASID: as.ASID()}
			}
			e.used = t.tick
			t.ctr.Hits.Inc()
			t.last = i
			return e.pte.Frame + phys.Addr(uint64(va)%as.PageSize()), true, nil
		}
	}
	// Miss: walk the page table.
	t.ctr.Misses.Inc()
	pte, ok := as.Lookup(va)
	if !ok {
		return 0, false, &Fault{VA: va, Access: access, Kind: FaultUnmapped, ASID: as.ASID()}
	}
	t.insert(as, vpn, pte)
	if !pte.Prot.Can(access.Need()) {
		return 0, false, &Fault{VA: va, Access: access, Kind: FaultProtection, ASID: as.ASID()}
	}
	return pte.Frame + phys.Addr(uint64(va)%as.PageSize()), false, nil
}

// Miss counts a translation of an address the page table does not map,
// as Translate does before returning its *Fault: the tick advances and
// a miss is counted. No entry can hit such an address (Map and Unmap
// bump the space's generation), so nothing else changes.
func (t *TLB) Miss() {
	t.tick++
	t.ctr.Misses.Inc()
}

// Skip advances the LRU tick by n and shifts by n the stamp of every
// entry touched after tick since: the state n more ticks of touching
// the same entries in the same order would leave.
func (t *TLB) Skip(since, n uint64) {
	for i := range t.entries {
		if t.entries[i].used > since {
			t.entries[i].used += n
		}
	}
	t.tick += n
}

func (t *TLB) insert(as *AddressSpace, vpn uint64, pte PTE) {
	victim := 0
	oldest := ^uint64(0)
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			victim = i
			break
		}
		if e.used < oldest {
			oldest = e.used
			victim = i
		}
	}
	t.entries[victim] = tlbEntry{
		asid: as.ASID(), vpn: vpn, gen: as.Generation(),
		pte: pte, used: t.tick, valid: true,
	}
	t.last = victim
	t.ver++
}
