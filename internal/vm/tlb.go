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
// A lookup checks the L0 hint (last) first; the scan behind it compares
// one packed (ASID, VPN) key per entry and confirms the full tag only
// on a key match, so many address spaces sharing the same pages (the
// multiprogrammed worlds' guests) cost one compare per entry.
//
// The TLB exists in the model because translation cost is part of the
// paper's argument: the kernel-level DMA path pays a software
// virtual_to_physical per argument, while user-level paths reuse TLB
// entries the shadow mappings installed once at setup time.
type TLB struct {
	entries []tlbEntry
	tick    uint64
	ctr     TLBCounters
	// lastAt bounds every LRU stamp but last's: it is the tick at
	// which last last changed (a fill, a scan hit, a Restore) or at
	// which Skip last shifted more than one entry. Every touch since
	// then hit entry last through the L0, so when Skip's window starts
	// at or after lastAt, last is the one entry it must shift.
	lastAt uint64
	// last is the index of the most recently hit or filled entry: a
	// one-entry L0 in front of the associative scan. Guest code streams
	// through buffers page by page, so the vast majority of lookups hit
	// the same entry as their predecessor; checking it first turns the
	// common case from an O(entries) scan into one tag compare. The
	// index is only a hint — every use re-validates the full
	// (asid, vpn, gen) tag, so stale hints are harmless.
	last int32
	// ver moves on every change to the entries' translations: a fill,
	// a Flush, a Restore. Hits and Skip only restamp LRU times, so they
	// leave it alone. Two reads fewer than 2^32 changes apart are equal
	// only if no entry changed between them.
	ver uint32
}

// tlbEntry is one cached translation. key packs (asid, vpn) into the
// one word the scan compares (tlbKey); a key match is confirmed on the
// full (asid, vpn, gen) tag, since distinct tags can share a key. The
// zero key marks an empty entry.
type tlbEntry struct {
	asid int
	vpn  uint64
	gen  uint64 // address-space generation when cached
	pte  PTE
	used uint64 // LRU timestamp
	key  uint64
}

// tlbKey packs (asid, vpn) into a non-zero word, exact for ASIDs below
// 2^15 and VPNs below 2^48: every address space and page the presets
// build. Wider values may collide, which the full-tag check absorbs.
func tlbKey(asid int, vpn uint64) uint64 { return uint64(asid)<<48 ^ vpn | 1<<63 }

// holds reports whether e caches the translation tagged (asid, vpn,
// gen), whose packed key is key.
func (e *tlbEntry) holds(key uint64, asid int, vpn, gen uint64) bool {
	return e.key == key && e.vpn == vpn && e.asid == asid && e.gen == gen
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
		t.entries[i].key = 0
	}
	t.ver++
}

// Version returns the mutation counter: it moves on every fill, Flush
// and Restore and never on a hit, so two reads that agree (and are
// fewer than 2^32 changes apart) bracket a stretch in which no entry's
// translation changed. It is not part of a snapshot; a Restore moves
// it forward like any other change.
func (t *TLB) Version() uint64 { return uint64(t.ver) }

// Translate resolves va in as, filling from the page table on a miss.
// hit reports whether the translation was served from the TLB; the CPU
// charges its page-table-walk cost when hit is false. Protection is
// checked on every access (rights live in the PTE, cached or not).
func (t *TLB) Translate(as *AddressSpace, va VAddr, access Access) (pa phys.Addr, hit bool, err error) {
	pa, hit, kind, ok := t.Probe(as, va, access)
	if !ok {
		return 0, hit, &Fault{VA: va, Access: access, Kind: kind, ASID: as.ASID()}
	}
	return pa, hit, nil
}

// Probe is Translate without the error value: the same tick, counters,
// LRU stamps and fills, but a failed translation comes back as its
// fault kind with ok false, so a fault allocates nothing.
func (t *TLB) Probe(as *AddressSpace, va VAddr, access Access) (pa phys.Addr, hit bool, kind FaultKind, ok bool) {
	t.tick++
	asid, gen := as.ASID(), as.Generation()
	vpn := uint64(va) / as.PageSize()
	key := tlbKey(asid, vpn)
	// L0 fast path: re-check the last entry used before scanning. The
	// outcome (entry found, counters, LRU stamp) is identical to the scan
	// finding the same entry — at most one entry can carry a given
	// (asid, vpn, gen) tag, because fills happen only on misses.
	i := t.last
	if !t.entries[i].holds(key, asid, vpn, gen) {
		i = -1
		for j := range t.entries {
			if t.entries[j].holds(key, asid, vpn, gen) {
				i = int32(j)
				break
			}
		}
	}
	if i >= 0 {
		e := &t.entries[i]
		if !e.pte.Prot.Can(access.Need()) {
			return 0, true, FaultProtection, false
		}
		e.used = t.tick
		t.ctr.Hits.Inc()
		if i != t.last {
			t.last, t.lastAt = i, t.tick
		}
		return e.pte.Frame + phys.Addr(uint64(va)%as.PageSize()), true, 0, true
	}
	// Miss: walk the page table.
	t.ctr.Misses.Inc()
	pte, mapped := as.Lookup(va)
	if !mapped {
		return 0, false, FaultUnmapped, false
	}
	t.insert(key, asid, vpn, gen, pte)
	if !pte.Prot.Can(access.Need()) {
		return 0, false, FaultProtection, false
	}
	return pte.Frame + phys.Addr(uint64(va)%as.PageSize()), false, 0, true
}

// Skip advances the LRU tick by n and shifts by n the stamp of every
// entry touched after tick since: the state n more ticks of touching
// the same entries in the same order would leave. When no entry but
// last can carry a stamp above since (lastAt), only last is shifted.
func (t *TLB) Skip(since, n uint64) {
	t.tick += n
	if t.lastAt <= since {
		if e := &t.entries[t.last]; e.used > since {
			e.used += n
		}
		return
	}
	for i := range t.entries {
		if t.entries[i].used > since {
			t.entries[i].used += n
		}
	}
	t.lastAt = t.tick
}

func (t *TLB) insert(key uint64, asid int, vpn, gen uint64, pte PTE) {
	victim := 0
	oldest := ^uint64(0)
	for i := range t.entries {
		e := &t.entries[i]
		if e.key == 0 {
			victim = i
			break
		}
		if e.used < oldest {
			oldest = e.used
			victim = i
		}
	}
	t.entries[victim] = tlbEntry{asid: asid, vpn: vpn, gen: gen, pte: pte, used: t.tick, key: key}
	t.last, t.lastAt = int32(victim), t.tick
	t.ver++
}
