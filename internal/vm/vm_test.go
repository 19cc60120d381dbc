package vm

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"uldma/internal/phys"
)

const pageSize = 8192

func TestProtString(t *testing.T) {
	cases := []struct {
		p    Prot
		want string
	}{
		{0, "--"}, {Read, "r-"}, {Write, "-w"}, {Read | Write, "rw"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("Prot(%d) = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestAccessNeed(t *testing.T) {
	if AccessLoad.Need() != Read || AccessStore.Need() != Write || AccessRMW.Need() != Read|Write {
		t.Fatal("access→prot mapping wrong")
	}
	if AccessLoad.String() != "load" || AccessStore.String() != "store" || AccessRMW.String() != "rmw" {
		t.Fatal("access names wrong")
	}
}

func TestRMWProtection(t *testing.T) {
	as := NewAddressSpace(1, pageSize)
	as.Map(0x10000, 0x40000, Read)
	as.Map(0x18000, 0x48000, Write)
	as.Map(0x20000, 0x50000, Read|Write)
	if _, err := as.Translate(0x10000, AccessRMW); err == nil {
		t.Fatal("RMW on read-only page allowed")
	}
	if _, err := as.Translate(0x18000, AccessRMW); err == nil {
		t.Fatal("RMW on write-only page allowed")
	}
	if _, err := as.Translate(0x20000, AccessRMW); err != nil {
		t.Fatalf("RMW on rw page denied: %v", err)
	}
}

func TestNewAddressSpacePanicsOnBadPageSize(t *testing.T) {
	for _, size := range []uint64{0, 3, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("page size %d accepted", size)
				}
			}()
			NewAddressSpace(1, size)
		}()
	}
}

func TestMapTranslate(t *testing.T) {
	as := NewAddressSpace(1, pageSize)
	if err := as.Map(0x10000, 0x40000, Read|Write); err != nil {
		t.Fatal(err)
	}
	pa, err := as.Translate(0x10008, AccessLoad)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x40008 {
		t.Fatalf("translate = %v, want 0x40008", pa)
	}
	pa, err = as.Translate(0x10000+pageSize-8, AccessStore)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x40000+pageSize-8 {
		t.Fatalf("end-of-page translate = %v", pa)
	}
}

func TestMapAlignmentErrors(t *testing.T) {
	as := NewAddressSpace(1, pageSize)
	if err := as.Map(0x10004, 0x40000, Read); err == nil {
		t.Fatal("unaligned virtual address accepted")
	}
	if err := as.Map(0x10000, 0x40004, Read); err == nil {
		t.Fatal("unaligned physical address accepted")
	}
}

func TestFaults(t *testing.T) {
	as := NewAddressSpace(3, pageSize)
	if err := as.Map(0x10000, 0x40000, Read); err != nil { // read-only page
		t.Fatal(err)
	}
	_, err := as.Translate(0x90000, AccessLoad)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultUnmapped || f.ASID != 3 {
		t.Fatalf("unmapped translate: %v", err)
	}
	_, err = as.Translate(0x10000, AccessStore)
	if !errors.As(err, &f) || f.Kind != FaultProtection {
		t.Fatalf("store to read-only page: %v", err)
	}
	// Load on the same page is fine.
	if _, err := as.Translate(0x10000, AccessLoad); err != nil {
		t.Fatalf("load on read-only page: %v", err)
	}
}

func TestUnmapAndRemap(t *testing.T) {
	as := NewAddressSpace(1, pageSize)
	as.Map(0x10000, 0x40000, Read|Write)
	g1 := as.Generation()
	as.Unmap(0x10000)
	if as.Generation() == g1 {
		t.Fatal("Unmap did not bump generation")
	}
	if _, err := as.Translate(0x10000, AccessLoad); err == nil {
		t.Fatal("translate succeeded after Unmap")
	}
	as.Map(0x10000, 0x60000, Read)
	pa, err := as.Translate(0x10000, AccessLoad)
	if err != nil || pa != 0x60000 {
		t.Fatalf("remap: pa=%v err=%v", pa, err)
	}
	if len(as.pages) != 1 {
		t.Fatalf("mapped pages = %d", len(as.pages))
	}
}

func TestCheckRange(t *testing.T) {
	as := NewAddressSpace(1, pageSize)
	as.Map(0x10000, 0x40000, Read|Write)
	as.Map(0x10000+pageSize, 0x50000, Read) // second page read-only
	if err := as.CheckRange(0x10000, pageSize, AccessStore); err != nil {
		t.Fatalf("single writable page: %v", err)
	}
	if err := as.CheckRange(0x10000, 2*pageSize, AccessLoad); err != nil {
		t.Fatalf("two readable pages: %v", err)
	}
	var f *Fault
	err := as.CheckRange(0x10000, pageSize+1, AccessStore) // spills into RO page
	if !errors.As(err, &f) || f.Kind != FaultProtection {
		t.Fatalf("range spilling into read-only page: %v", err)
	}
	err = as.CheckRange(0x10000, 3*pageSize, AccessLoad) // third page unmapped
	if !errors.As(err, &f) || f.Kind != FaultUnmapped {
		t.Fatalf("range with unmapped page: %v", err)
	}
	if err := as.CheckRange(0x10000, 0, AccessStore); err != nil {
		t.Fatal("zero-length range should pass")
	}
	if err := as.CheckRange(^VAddr(0)-100, 200, AccessLoad); err == nil {
		t.Fatal("wrapping range accepted")
	}
}

func TestPageBase(t *testing.T) {
	as := NewAddressSpace(1, pageSize)
	if got := as.PageBase(0x10000 + 17); got != 0x10000 {
		t.Fatalf("PageBase = %v", got)
	}
}

// --- TLB ---

func TestTLBHitMiss(t *testing.T) {
	as := NewAddressSpace(1, pageSize)
	as.Map(0x10000, 0x40000, Read|Write)
	tlb := NewTLB(4)
	pa, hit, err := tlb.Translate(as, 0x10010, AccessLoad)
	if err != nil || hit || pa != 0x40010 {
		t.Fatalf("first access: pa=%v hit=%v err=%v, want miss 0x40010", pa, hit, err)
	}
	pa, hit, err = tlb.Translate(as, 0x10020, AccessStore)
	if err != nil || !hit || pa != 0x40020 {
		t.Fatalf("second access: pa=%v hit=%v err=%v, want hit 0x40020", pa, hit, err)
	}
	s := tlb.Counters()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("counters = %+v", s)
	}
}

func TestTLBProtectionCheckedOnHit(t *testing.T) {
	as := NewAddressSpace(1, pageSize)
	as.Map(0x10000, 0x40000, Read)
	tlb := NewTLB(4)
	if _, _, err := tlb.Translate(as, 0x10000, AccessLoad); err != nil {
		t.Fatal(err)
	}
	_, hit, err := tlb.Translate(as, 0x10000, AccessStore)
	var f *Fault
	if !hit || !errors.As(err, &f) || f.Kind != FaultProtection {
		t.Fatalf("cached entry did not enforce protection: hit=%v err=%v", hit, err)
	}
}

func TestTLBGenerationInvalidation(t *testing.T) {
	as := NewAddressSpace(1, pageSize)
	as.Map(0x10000, 0x40000, Read|Write)
	tlb := NewTLB(4)
	tlb.Translate(as, 0x10000, AccessLoad)
	as.Map(0x10000, 0x70000, Read|Write) // kernel remaps the page
	pa, hit, err := tlb.Translate(as, 0x10000, AccessLoad)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("stale TLB entry served after remap")
	}
	if pa != 0x70000 {
		t.Fatalf("post-remap pa = %v, want 0x70000", pa)
	}
}

func TestTLBASIDTagging(t *testing.T) {
	as1 := NewAddressSpace(1, pageSize)
	as2 := NewAddressSpace(2, pageSize)
	as1.Map(0x10000, 0x40000, Read|Write)
	as2.Map(0x10000, 0x80000, Read|Write)
	tlb := NewTLB(8)
	tlb.Translate(as1, 0x10000, AccessLoad)
	pa, hit, err := tlb.Translate(as2, 0x10000, AccessLoad)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("TLB entry leaked across address spaces")
	}
	if pa != 0x80000 {
		t.Fatalf("as2 pa = %v, want 0x80000", pa)
	}
	// Both now cached under their own ASIDs.
	if _, hit, _ := tlb.Translate(as1, 0x10000, AccessLoad); !hit {
		t.Fatal("as1 entry evicted unexpectedly")
	}
	if _, hit, _ := tlb.Translate(as2, 0x10000, AccessLoad); !hit {
		t.Fatal("as2 entry evicted unexpectedly")
	}
}

func TestTLBLRUEviction(t *testing.T) {
	as := NewAddressSpace(1, pageSize)
	for i := 0; i < 3; i++ {
		as.Map(VAddr(i)*pageSize, phys.Addr(0x100000+i*pageSize), Read)
	}
	tlb := NewTLB(2)
	tlb.Translate(as, 0, AccessLoad)              // miss, cache page 0
	tlb.Translate(as, pageSize, AccessLoad)       // miss, cache page 1
	tlb.Translate(as, 0, AccessLoad)              // hit page 0 (now MRU)
	tlb.Translate(as, 2*pageSize, AccessLoad)     // miss, evicts LRU = page 1
	_, hit, _ := tlb.Translate(as, 0, AccessLoad) // page 0 must survive
	if !hit {
		t.Fatal("MRU entry was evicted")
	}
	_, hit, _ = tlb.Translate(as, pageSize, AccessLoad)
	if hit {
		t.Fatal("LRU entry was not evicted")
	}
}

func TestTLBFlush(t *testing.T) {
	as := NewAddressSpace(5, pageSize)
	as.Map(0, 0x40000, Read)
	tlb := NewTLB(4)
	tlb.Translate(as, 0, AccessLoad)
	tlb.Flush()
	if _, hit, _ := tlb.Translate(as, 0, AccessLoad); hit {
		t.Fatal("entry survived Flush")
	}
}

func TestTLBUnmappedMiss(t *testing.T) {
	as := NewAddressSpace(1, pageSize)
	tlb := NewTLB(4)
	_, _, err := tlb.Translate(as, 0x123456, AccessLoad)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultUnmapped {
		t.Fatalf("unmapped TLB translate: %v", err)
	}
}

func TestTLBSizePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTLB(0) did not panic")
		}
	}()
	NewTLB(0)
}

// Property: CheckRange(va, n, access) succeeds exactly when every byte
// of the range translates with that access.
func TestCheckRangeMatchesPerByteProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, vaRaw uint32, nRaw uint16) bool {
		as := NewAddressSpace(1, pageSize)
		// Map 6 pages with varied prots around a small region.
		for i := uint64(0); i < 6; i++ {
			if seed>>(i*2)&3 == 0 {
				continue // leave a hole
			}
			as.Map(VAddr(i*pageSize), phys.Addr(0x100000+i*pageSize), Prot(seed>>(i*2))&3)
		}
		va := VAddr(uint64(vaRaw) % (7 * pageSize))
		n := uint64(nRaw) % (3 * pageSize)
		for _, acc := range []Access{AccessLoad, AccessStore} {
			rangeOK := as.CheckRange(va, n, acc) == nil
			perByte := true
			// Sampling at page granularity is exact: rights are per page.
			for off := uint64(0); off < n; off += pageSize {
				if _, err := as.Translate(va+VAddr(off), acc); err != nil {
					perByte = false
					break
				}
			}
			if n > 0 {
				if _, err := as.Translate(va+VAddr(n-1), acc); err != nil {
					perByte = false
				}
			}
			if rangeOK != perByte {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 400})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: TLB translation always agrees with the page-table walk, for
// random mapping layouts and access sequences.
func TestTLBMatchesPageTableProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, accesses []uint16) bool {
		as := NewAddressSpace(1, pageSize)
		// Map 8 pages with pseudo-random prots derived from the seed.
		for i := uint64(0); i < 8; i++ {
			prot := Prot((seed>>i)&1) | Prot(((seed>>(i+8))&1)<<1)
			as.Map(VAddr(i*pageSize), phys.Addr(0x100000+i*pageSize), prot)
		}
		tlb := NewTLB(3) // smaller than working set: exercises eviction
		for _, a := range accesses {
			va := VAddr(uint64(a) % (10 * pageSize)) // some beyond mapped area
			acc := Access(a % 2)
			pa1, err1 := as.Translate(va, acc)
			pa2, _, err2 := tlb.Translate(as, va, acc)
			if (err1 == nil) != (err2 == nil) {
				return false
			}
			if err1 == nil && pa1 != pa2 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTLBSkipMatchesRepeats: Skip leaves the TLB's tick and LRU stamps
// exactly as touching the same entry n more times does, so the next
// eviction picks the same victim.
func TestTLBSkipMatchesRepeats(t *testing.T) {
	as := NewAddressSpace(1, pageSize)
	for i := 0; i < 3; i++ {
		as.Map(VAddr(i)*pageSize, phys.Addr(0x100000+i*pageSize), Read)
	}
	var tlbs [2]*TLB
	for i := range tlbs {
		tlbs[i] = NewTLB(2)
		tlbs[i].Translate(as, 0, AccessLoad)
		tlbs[i].Translate(as, pageSize, AccessLoad)
	}
	since := tlbs[1].Tick()
	for i := 0; i < 6; i++ {
		tlbs[0].Translate(as, 0, AccessLoad)
	}
	tlbs[1].Translate(as, 0, AccessLoad)
	tlbs[1].Skip(since, 5)
	for _, tlb := range tlbs {
		tlb.Translate(as, 2*pageSize, AccessLoad) // evicts page 1
	}
	// The hit counter is the registry's to charge (obs.Registry.Extrapolate).
	a, b := tlbs[0].Snapshot(), tlbs[1].Snapshot()
	a.ctr.Hits, b.ctr.Hits = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("skipped TLB differs from the repeated one:\n repeated %+v\n skipped  %+v", *a, *b)
	}
}

// TestTLBVersion: the mutation version moves on a fill, a Flush and a
// Restore, and stays put on a hit, a Skip and an unmapped probe, none
// of which change an entry's translation.
func TestTLBVersion(t *testing.T) {
	as := NewAddressSpace(1, pageSize)
	as.Map(0, 0x40000, Read)
	as.Map(pageSize, 0x42000, Read)
	tlb := NewTLB(4)
	step := func(what string, moves bool, f func()) {
		t.Helper()
		before := tlb.Version()
		f()
		if got := tlb.Version() != before; got != moves {
			t.Fatalf("%s: version moved = %v, want %v", what, got, moves)
		}
	}
	step("fill", true, func() { tlb.Translate(as, 0, AccessLoad) })
	step("hit", false, func() { tlb.Translate(as, 8, AccessLoad) })
	step("protection fault on a hit", false, func() { tlb.Translate(as, 0, AccessStore) })
	step("skip", false, func() { tlb.Skip(0, 3) })
	step("unmapped probe", false, func() { tlb.Probe(as, 4*pageSize, AccessLoad) })
	snap := tlb.Snapshot()
	step("second fill", true, func() { tlb.Translate(as, pageSize, AccessLoad) })
	step("flush", true, tlb.Flush)
	step("restore", true, func() {
		if err := tlb.Restore(snap); err != nil {
			t.Fatal(err)
		}
	})
	step("hit after restore", false, func() { tlb.Translate(as, 0, AccessLoad) })
}
