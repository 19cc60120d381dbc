package vm

import (
	"errors"
	"testing"
	"testing/quick"

	"uldma/internal/phys"
)

func bumpAlloc(mem *phys.Memory, start phys.Addr) FrameAlloc {
	next := start
	return func() (phys.Addr, error) {
		f := next
		next += 8192
		if uint64(f)+8192 > uint64(mem.Size()) {
			return 0, errors.New("out of frames")
		}
		return f, nil
	}
}

func TestMaterializeAndWalk(t *testing.T) {
	mem := phys.New(1 << 20)
	as := NewAddressSpace(1, 8192)
	as.Map(0x10000, 0x40000, Read|Write)
	as.Map(0x18000, 0x48000, Read)
	// High mappings: the kernel's shadow (2^32) and atomic (2^36) VAs.
	as.Map(0x1_0001_0000, 0x50000, Read|Write)
	as.Map(0x10_0001_0000, 0x58000, Read|Write)

	tbl, err := Materialize(as, mem, bumpAlloc(mem, 0x80000))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.root == 0 {
		t.Fatal("no root")
	}
	pa, reads, err := tbl.Walk(0x10008, AccessLoad)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x40008 {
		t.Fatalf("walk = %v", pa)
	}
	if reads != walkLevels {
		t.Fatalf("walk took %d reads, want %d", reads, walkLevels)
	}
	// Protection enforced from the materialized PTE.
	if _, _, err := tbl.Walk(0x18000, AccessStore); err == nil {
		t.Fatal("store through read-only PTE allowed")
	}
	// High mappings resolve.
	if pa, _, err := tbl.Walk(0x1_0001_0020, AccessLoad); err != nil || pa != 0x50020 {
		t.Fatalf("shadow-range walk: pa=%v err=%v", pa, err)
	}
	if pa, _, err := tbl.Walk(0x10_0001_0000, AccessStore); err != nil || pa != 0x58000 {
		t.Fatalf("atomic-range walk: pa=%v err=%v", pa, err)
	}
	// Unmapped VAs fault at whichever level is absent.
	var f *Fault
	_, reads, err = tbl.Walk(0x7_0000_0000, AccessLoad)
	if !errors.As(err, &f) || f.Kind != FaultUnmapped {
		t.Fatalf("unmapped walk: %v", err)
	}
	if reads == 0 || reads > walkLevels {
		t.Fatalf("unmapped walk read %d PTEs", reads)
	}
	// Beyond the walked VA span: immediate fault, zero reads.
	if _, reads, err = tbl.Walk(1<<walkVABits, AccessLoad); err == nil || reads != 0 {
		t.Fatalf("out-of-span walk: reads=%d err=%v", reads, err)
	}
}

// TestWalkMatchesSoftwareTranslate: the materialized table and the
// architectural map agree on every outcome, over random layouts.
func TestWalkMatchesSoftwareTranslate(t *testing.T) {
	err := quick.Check(func(seed uint64, probes []uint32) bool {
		mem := phys.New(1 << 20)
		as := NewAddressSpace(1, 8192)
		// Map 12 pseudo-random pages across the low 43-bit space.
		s := seed
		next := func() uint64 {
			s = s*6364136223846793005 + 1442695040888963407
			return s >> 11
		}
		for i := 0; i < 12; i++ {
			va := VAddr(next() % (1 << walkVABits) &^ 8191)
			pa := phys.Addr(0x40000 + uint64(i)*8192)
			prot := Prot(next() % 4)
			as.Map(va, pa, prot)
		}
		tbl, err := Materialize(as, mem, bumpAlloc(mem, 0x80000))
		if err != nil {
			return false
		}
		// Probe mapped pages and random addresses.
		var vas []VAddr
		for vpn := range as.pages {
			vas = append(vas, VAddr(vpn*8192+uint64(next()%8192&^7)))
		}
		for _, p := range probes {
			vas = append(vas, VAddr(uint64(p)*977)%(1<<walkVABits))
		}
		for _, va := range vas {
			for _, acc := range []Access{AccessLoad, AccessStore, AccessRMW} {
				swPA, swErr := as.Translate(va, acc)
				hwPA, _, hwErr := tbl.Walk(va, acc)
				if (swErr == nil) != (hwErr == nil) {
					return false
				}
				if swErr == nil && swPA != hwPA {
					return false
				}
				if swErr != nil {
					var sf, hf *Fault
					if !errors.As(swErr, &sf) || !errors.As(hwErr, &hf) || sf.Kind != hf.Kind {
						return false
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// dramReadCycles is the modelled latency of one memory read that misses
// the caches — what each level of a page-table walk costs. Three levels
// at this latency reproduce (within one cycle) the CPU preset's
// TLBMissCycles constant.
const dramReadCycles = 13

// TestWalkCostJustifiesTLBMissConstant derives the CPU preset's flat
// TLB-miss charge from the real walk: three PTE reads at DRAM latency.
func TestWalkCostJustifiesTLBMissConstant(t *testing.T) {
	mem := phys.New(1 << 20)
	as := NewAddressSpace(1, 8192)
	as.Map(0x10000, 0x40000, Read|Write)
	tbl, err := Materialize(as, mem, bumpAlloc(mem, 0x80000))
	if err != nil {
		t.Fatal(err)
	}
	_, reads, err := tbl.Walk(0x10000, AccessLoad)
	if err != nil {
		t.Fatal(err)
	}
	walkCycles := int64(reads) * dramReadCycles
	const presetTLBMissCycles = 40 // machine.Alpha3000TC's cpu.Config value
	if diff := walkCycles - presetTLBMissCycles; diff < -4 || diff > 4 {
		t.Fatalf("real walk costs %d cycles; the preset charges %d — constants diverged",
			walkCycles, presetTLBMissCycles)
	}
}

func TestMaterializeRejectsOddPageSize(t *testing.T) {
	mem := phys.New(1 << 20)
	as := NewAddressSpace(1, 4096)
	if _, err := Materialize(as, mem, bumpAlloc(mem, 0x80000)); err == nil {
		t.Fatal("4 KiB page size accepted by the 8 KiB walker")
	}
}

func TestMaterializeAllocFailure(t *testing.T) {
	mem := phys.New(1 << 20)
	as := NewAddressSpace(1, 8192)
	as.Map(0x10000, 0x40000, Read)
	fails := func() (phys.Addr, error) { return 0, errors.New("no frames") }
	if _, err := Materialize(as, mem, fails); err == nil {
		t.Fatal("allocator failure swallowed")
	}
}

func TestMaterializeRejectsOutOfSpanVA(t *testing.T) {
	mem := phys.New(1 << 20)
	as := NewAddressSpace(1, 8192)
	as.Map(VAddr(1)<<walkVABits, 0x40000, Read)
	if _, err := Materialize(as, mem, bumpAlloc(mem, 0x80000)); err == nil {
		t.Fatal("out-of-span mapping accepted")
	}
}
