package vm

import (
	"fmt"

	"uldma/internal/phys"
)

// Memory-resident page tables. The AddressSpace map is the
// architectural source of truth the simulator executes against; this
// file provides the hardware view of the same mappings — an Alpha-style
// three-level page table materialized into simulated physical memory,
// with a walker that performs real PTE reads.
//
// Its role in the model is calibration evidence: the CPU charges a flat
// TLBMissCycles per miss, and TestWalkCostJustifiesTLBMissConstant
// derives that constant from an actual walk (3 PTE reads at DRAM
// latency) instead of leaving it a magic number. The kernel also uses
// it (Kernel.MaterializeTable) so tools can inspect page tables the way
// a debugger would.

// Page-table geometry for 8 KiB pages: each level holds 1024 eight-byte
// entries (exactly one page per table), and three levels cover a 43-bit
// virtual address space — enough for the kernel's shadow and atomic
// windows at 2^32…2^36.
const (
	walkLevels   = 3
	walkIndexLen = 10 // bits per level
	walkPageBits = 13 // 8 KiB pages
	walkVABits   = walkLevels*walkIndexLen + walkPageBits
)

// PTE encoding in the materialized table.
const (
	pteValid = 1 << 0
	pteRead  = 1 << 1
	pteWrite = 1 << 2
	// The frame number occupies the bits above the page offset.
)

// FrameAlloc hands out zeroed page frames for table nodes (the kernel's
// physical allocator implements it).
type FrameAlloc func() (phys.Addr, error)

// MaterializedTable is an address space's mappings encoded as a
// three-level table in physical memory.
type MaterializedTable struct {
	mem  *phys.Memory
	root phys.Addr
}

// Materialize encodes every mapping of as into freshly allocated table
// pages in mem. The encoding is a snapshot: remapping the AddressSpace
// afterwards does not update it (the kernel re-materializes, the way a
// real kernel edits PTEs).
func Materialize(as *AddressSpace, mem *phys.Memory, alloc FrameAlloc) (*MaterializedTable, error) {
	if as.PageSize() != 1<<walkPageBits {
		return nil, fmt.Errorf("vm: materialize supports %d-byte pages, address space has %d",
			1<<walkPageBits, as.PageSize())
	}
	root, err := alloc()
	if err != nil {
		return nil, err
	}
	t := &MaterializedTable{mem: mem, root: root}
	for vpn, pte := range as.pages {
		va := VAddr(vpn * as.PageSize())
		if uint64(va) >= 1<<walkVABits {
			return nil, fmt.Errorf("vm: virtual address %v exceeds the %d-bit walked space", va, walkVABits)
		}
		if err := t.insert(va, pte, alloc); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func walkIndices(va VAddr) [walkLevels]uint64 {
	var idx [walkLevels]uint64
	v := uint64(va) >> walkPageBits
	for level := walkLevels - 1; level >= 0; level-- {
		idx[level] = v & (1<<walkIndexLen - 1)
		v >>= walkIndexLen
	}
	return idx
}

func (t *MaterializedTable) insert(va VAddr, pte PTE, alloc FrameAlloc) error {
	idx := walkIndices(va)
	node := t.root
	for level := 0; level < walkLevels-1; level++ {
		slot := node + phys.Addr(idx[level]*8)
		entry, err := t.mem.Read(slot, phys.Size64)
		if err != nil {
			return err
		}
		if entry&pteValid == 0 {
			next, err := alloc()
			if err != nil {
				return err
			}
			entry = uint64(next) | pteValid
			if err := t.mem.Write(slot, phys.Size64, entry); err != nil {
				return err
			}
		}
		node = phys.Addr(entry &^ uint64(1<<walkPageBits-1))
	}
	leaf := node + phys.Addr(idx[walkLevels-1]*8)
	encoded := uint64(pte.Frame) | pteValid
	if pte.Prot.Can(Read) {
		encoded |= pteRead
	}
	if pte.Prot.Can(Write) {
		encoded |= pteWrite
	}
	return t.mem.Write(leaf, phys.Size64, encoded)
}

// Walk resolves va through the materialized table with real memory
// reads, returning the physical address and the number of PTE reads
// performed (each a DRAM read that misses the caches). Faults
// carry the same classification the software path produces.
func (t *MaterializedTable) Walk(va VAddr, access Access) (pa phys.Addr, reads int, err error) {
	if uint64(va) >= 1<<walkVABits {
		return 0, 0, &Fault{VA: va, Access: access, Kind: FaultUnmapped}
	}
	idx := walkIndices(va)
	node := t.root
	for level := 0; level < walkLevels; level++ {
		slot := node + phys.Addr(idx[level]*8)
		entry, rerr := t.mem.Read(slot, phys.Size64)
		if rerr != nil {
			return 0, reads, rerr
		}
		reads++
		if entry&pteValid == 0 {
			return 0, reads, &Fault{VA: va, Access: access, Kind: FaultUnmapped}
		}
		if level == walkLevels-1 {
			need := access.Need()
			var prot Prot
			if entry&pteRead != 0 {
				prot |= Read
			}
			if entry&pteWrite != 0 {
				prot |= Write
			}
			if !prot.Can(need) {
				return 0, reads, &Fault{VA: va, Access: access, Kind: FaultProtection}
			}
			frame := phys.Addr(entry &^ uint64(1<<walkPageBits-1) &^ uint64(pteValid|pteRead|pteWrite))
			return frame + phys.Addr(uint64(va)&(1<<walkPageBits-1)), reads, nil
		}
		node = phys.Addr(entry &^ uint64(1<<walkPageBits-1))
	}
	panic("vm: unreachable walk state")
}
