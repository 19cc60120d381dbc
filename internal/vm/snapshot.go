package vm

// World snapshot/restore support. A machine snapshot (internal/machine)
// captures the MMU state so measurement harnesses can rewind a warmed
// world instead of rebuilding it: the TLB's entry array (including LRU
// stamps, so replacement decisions replay identically) and, for the
// in-place restore path, the page tables of address spaces that existed
// at snapshot time.

import "fmt"

// ASSnapshot captures one address space's page table. See
// AddressSpace.Snapshot.
type ASSnapshot struct {
	asid     int
	pageSize uint64
	pages    map[uint64]PTE
	gen      uint64
}

// Snapshot captures the page table and generation counter.
func (as *AddressSpace) Snapshot() *ASSnapshot {
	pages := make(map[uint64]PTE, len(as.pages))
	for k, v := range as.pages {
		pages[k] = v
	}
	return &ASSnapshot{asid: as.asid, pageSize: as.pageSize, pages: pages, gen: as.gen}
}

// Restore rewinds the page table and generation counter to the
// snapshot. It must be paired with a TLB restore taken at the same
// instant: rewinding the generation counter alone could make TLB
// entries cached after the snapshot look current again.
func (as *AddressSpace) Restore(s *ASSnapshot) error {
	if s.asid != as.asid || s.pageSize != as.pageSize {
		return fmt.Errorf("vm: restore: snapshot is from address space %d (page size %d), not %d (%d)",
			s.asid, s.pageSize, as.asid, as.pageSize)
	}
	for k := range as.pages {
		delete(as.pages, k)
	}
	for k, v := range s.pages {
		as.pages[k] = v
	}
	as.gen = s.gen
	return nil
}

// TLBSnapshot captures a TLB's complete state. See TLB.Snapshot.
type TLBSnapshot struct {
	entries []tlbEntry
	tick    uint64
	ctr     TLBCounters
	last    int32
}

// Snapshot captures every entry, the LRU clock and the counters.
func (t *TLB) Snapshot() *TLBSnapshot {
	entries := make([]tlbEntry, len(t.entries))
	copy(entries, t.entries)
	return &TLBSnapshot{entries: entries, tick: t.tick, ctr: t.ctr, last: t.last}
}

// Restore rewinds the TLB to the snapshot. The snapshot must come from
// a TLB with the same number of entries.
func (t *TLB) Restore(s *TLBSnapshot) error {
	if len(s.entries) != len(t.entries) {
		return fmt.Errorf("vm: restore: snapshot has %d TLB entries, TLB has %d", len(s.entries), len(t.entries))
	}
	copy(t.entries, s.entries)
	t.tick, t.ctr, t.last = s.tick, s.ctr, s.last
	t.lastAt = t.tick
	t.ver++
	return nil
}

// StateHash returns an order-insensitive hash of the valid entries'
// structural state — (asid, vpn, gen, frame, prot), deliberately
// excluding the LRU stamps. Two TLBs whose valid translations are
// identical hash equal regardless of which slots hold them. The
// convergence detector (internal/core) folds this into its
// per-iteration fingerprint: in steady state the same entries are
// re-touched every iteration, so the hash delta pins the TLB as a
// fixed point.
func (t *TLB) StateHash() uint64 {
	var h uint64
	for i := range t.entries {
		e := &t.entries[i]
		if e.key == 0 {
			continue
		}
		x := uint64(e.asid)*0x9e3779b97f4a7c15 ^ e.vpn*0xbf58476d1ce4e5b9 ^
			e.gen*0x94d049bb133111eb ^ uint64(e.pte.Frame)*0xd6e8feb86659fd93 ^
			uint64(e.pte.Prot)<<56
		x ^= x >> 29
		x *= 0xff51afd7ed558ccd
		x ^= x >> 32
		h += x // commutative fold: slot order must not matter
	}
	return h
}

// Tick returns the TLB's LRU clock, for the convergence fingerprint
// (its per-iteration delta is constant in steady state).
func (t *TLB) Tick() uint64 { return t.tick }

// StateHash returns an order-insensitive hash of the address space's
// page table — (vpn, frame, prot) per mapping plus the generation
// counter. Map iteration order must not leak into the value, so each
// mapping is finalized independently and commutatively folded, the
// same scheme TLB.StateHash uses. The IOMMU (internal/iommu) hashes
// its per-context device page tables with this for the machine
// fingerprint.
func (as *AddressSpace) StateHash() uint64 {
	h := as.gen * 0x94d049bb133111eb
	for vpn, pte := range as.pages {
		x := uint64(as.asid)*0x9e3779b97f4a7c15 ^ vpn*0xbf58476d1ce4e5b9 ^
			uint64(pte.Frame)*0xd6e8feb86659fd93 ^ uint64(pte.Prot)<<56
		x ^= x >> 29
		x *= 0xff51afd7ed558ccd
		x ^= x >> 32
		h += x // commutative fold: map order must not matter
	}
	return h
}
