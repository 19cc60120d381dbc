// Package vm models the virtual memory system: per-process address
// spaces backed by page tables, protection bits, and a TLB.
//
// Virtual memory is the protection mechanism every user-level DMA scheme
// in the paper leans on. The operating system maps two kinds of pages
// for a communicating process:
//
//   - ordinary pages, whose page-table entries point at main-memory
//     frames; and
//   - shadow pages, whose entries point into the DMA engine's shadow
//     physical window, with the target's physical frame number (and, for
//     extended shadow addressing, the register-context id) embedded in
//     the physical address by the kernel at map time.
//
// Because only the kernel writes page tables, a user process can only
// ever emit shadow physical addresses for frames it was granted — that
// is the whole protection story, and it needs no kernel involvement per
// transfer.
package vm

import (
	"fmt"

	"uldma/internal/phys"
)

// VAddr is a virtual byte address.
type VAddr uint64

// String formats the address in hex.
func (a VAddr) String() string { return fmt.Sprintf("%#x", uint64(a)) }

// Prot is a page protection bit set.
type Prot uint8

// Protection bits.
const (
	Read  Prot = 1 << iota // page may be loaded from
	Write                  // page may be stored to
)

// Can reports whether p grants every bit in need.
func (p Prot) Can(need Prot) bool { return p&need == need }

// String renders the bit set like "rw", "r-", "--".
func (p Prot) String() string {
	b := []byte("--")
	if p.Can(Read) {
		b[0] = 'r'
	}
	if p.Can(Write) {
		b[1] = 'w'
	}
	return string(b)
}

// Access is the kind of memory access being attempted, for protection
// checks and fault reporting.
type Access uint8

// Access kinds.
const (
	AccessLoad Access = iota
	AccessStore
	// AccessRMW is an atomic read-modify-write: it needs both read and
	// write rights on the page.
	AccessRMW
)

// Need returns the protection bits the access requires.
func (a Access) Need() Prot {
	switch a {
	case AccessStore:
		return Write
	case AccessRMW:
		return Read | Write
	default:
		return Read
	}
}

// String names the access kind.
func (a Access) String() string {
	switch a {
	case AccessStore:
		return "store"
	case AccessRMW:
		return "rmw"
	default:
		return "load"
	}
}

// FaultKind classifies translation failures.
type FaultKind uint8

// Fault kinds.
const (
	FaultUnmapped   FaultKind = iota // no page-table entry
	FaultProtection                  // entry exists, rights insufficient
)

func (k FaultKind) String() string {
	if k == FaultUnmapped {
		return "unmapped"
	}
	return "protection"
}

// Fault is the error returned for a failed translation. The kernel's DMA
// syscall surfaces these to the caller; in user mode they would be
// delivered as signals — the simulator terminates the offending process
// instead, which is all the experiments need.
type Fault struct {
	VA     VAddr
	Access Access
	Kind   FaultKind
	ASID   int
}

func (f *Fault) Error() string {
	return fmt.Sprintf("vm: %s fault (%s) at %v in address space %d", f.Kind, f.Access, f.VA, f.ASID)
}

// PTE is a page-table entry: the physical base of the page plus its
// protection. Frame may point into main memory or into a device window
// (that is how shadow pages work).
type PTE struct {
	Frame phys.Addr
	Prot  Prot
}

// AddressSpace is one process's page table. It is sparse: only mapped
// pages are stored. Not safe for concurrent use (the simulator is
// single-threaded).
type AddressSpace struct {
	asid     int
	pageSize uint64
	pages    map[uint64]PTE
	gen      uint64 // bumped on every Map/Unmap so TLB entries self-invalidate
}

// NewAddressSpace creates an empty address space. pageSize must be a
// power of two (the presets use 8 KiB, the Alpha 21064 page size).
func NewAddressSpace(asid int, pageSize uint64) *AddressSpace {
	if pageSize == 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("vm: page size %d is not a power of two", pageSize))
	}
	return &AddressSpace{asid: asid, pageSize: pageSize, pages: make(map[uint64]PTE)}
}

// ASID returns the address-space identifier (the Alpha's ASN).
func (as *AddressSpace) ASID() int { return as.asid }

// PageSize returns the page size in bytes.
func (as *AddressSpace) PageSize() uint64 { return as.pageSize }

// Generation returns the mapping-change counter; the TLB uses it to
// detect stale cached entries.
func (as *AddressSpace) Generation() uint64 { return as.gen }

func (as *AddressSpace) vpn(va VAddr) uint64    { return uint64(va) / as.pageSize }
func (as *AddressSpace) offset(va VAddr) uint64 { return uint64(va) % as.pageSize }

// PageBase returns the base virtual address of the page containing va.
func (as *AddressSpace) PageBase(va VAddr) VAddr {
	return VAddr(uint64(va) &^ (as.pageSize - 1))
}

// Map installs a translation for the page containing va to the physical
// page at pa. Both must be page-aligned. Remapping an existing page
// replaces it (and invalidates TLB copies via the generation counter).
func (as *AddressSpace) Map(va VAddr, pa phys.Addr, prot Prot) error {
	if as.offset(va) != 0 {
		return fmt.Errorf("vm: Map: virtual address %v not page-aligned", va)
	}
	if uint64(pa)%as.pageSize != 0 {
		return fmt.Errorf("vm: Map: physical address %v not page-aligned", pa)
	}
	as.pages[as.vpn(va)] = PTE{Frame: pa, Prot: prot}
	as.gen++
	return nil
}

// Unmap removes the translation for the page containing va, if any.
func (as *AddressSpace) Unmap(va VAddr) {
	delete(as.pages, as.vpn(va))
	as.gen++
}

// Lookup returns the PTE for the page containing va without protection
// checks. ok is false if the page is unmapped.
func (as *AddressSpace) Lookup(va VAddr) (PTE, bool) {
	pte, ok := as.pages[as.vpn(va)]
	return pte, ok
}

// Translate performs a full software page-table walk with protection
// check: this is the virtual_to_physical routine of Figure 1 when called
// by the kernel, and the reference the TLB is checked against.
func (as *AddressSpace) Translate(va VAddr, access Access) (phys.Addr, error) {
	pte, ok := as.pages[as.vpn(va)]
	if !ok {
		return 0, &Fault{VA: va, Access: access, Kind: FaultUnmapped, ASID: as.asid}
	}
	if !pte.Prot.Can(access.Need()) {
		return 0, &Fault{VA: va, Access: access, Kind: FaultProtection, ASID: as.asid}
	}
	return pte.Frame + phys.Addr(as.offset(va)), nil
}

// CheckRange verifies that every page overlapping [va, va+n) is mapped
// with the rights access needs. This is the kernel's check_size step
// from Figure 1: the whole transfer range is validated before a DMA is
// started on the user's behalf.
func (as *AddressSpace) CheckRange(va VAddr, n uint64, access Access) error {
	if n == 0 {
		return nil
	}
	first := as.vpn(va)
	last := as.vpn(va + VAddr(n-1))
	if last < first { // wrapped the virtual address space
		return &Fault{VA: va, Access: access, Kind: FaultUnmapped, ASID: as.asid}
	}
	for p := first; p <= last; p++ {
		pte, ok := as.pages[p]
		if !ok {
			return &Fault{VA: VAddr(p * as.pageSize), Access: access, Kind: FaultUnmapped, ASID: as.asid}
		}
		if !pte.Prot.Can(access.Need()) {
			return &Fault{VA: VAddr(p * as.pageSize), Access: access, Kind: FaultProtection, ASID: as.asid}
		}
	}
	return nil
}
