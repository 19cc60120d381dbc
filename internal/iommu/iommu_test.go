package iommu

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"uldma/internal/obs"
	"uldma/internal/phys"
	"uldma/internal/vm"
)

func newTestIOMMU(t *testing.T) *IOMMU {
	t.Helper()
	io, err := New(Config{Contexts: 4, PageSize: 8192, TLBEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	return io
}

func TestTranslateHitMissFault(t *testing.T) {
	io := newTestIOMMU(t)
	if err := io.Map(1, 0x10000, 0x4000, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}

	// First translation walks the table (miss), second hits the IOTLB.
	pa, hit, err := io.Translate(1, 0x10008, vm.AccessLoad)
	if err != nil || hit {
		t.Fatalf("first translate: pa=%v hit=%v err=%v, want miss", pa, hit, err)
	}
	if pa != 0x4008 {
		t.Fatalf("pa = %v, want 0x4008", pa)
	}
	if pa, hit, err = io.Translate(1, 0x10010, vm.AccessStore); err != nil || !hit {
		t.Fatalf("second translate: hit=%v err=%v, want hit", hit, err)
	}
	if pa != 0x4010 {
		t.Fatalf("pa = %v, want 0x4010", pa)
	}
	if tc := io.IOTLB().Counters(); tc.Hits != 1 || tc.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", tc.Hits, tc.Misses)
	}

	// Same VA in a different context is unmapped: ASID tagging.
	if _, _, err := io.Translate(2, 0x10000, vm.AccessLoad); err == nil {
		t.Fatal("translate in unmapped context succeeded")
	}
	var f *vm.Fault
	_, _, err = io.Translate(1, 0x99999000, vm.AccessLoad)
	if !errors.As(err, &f) || f.Kind != vm.FaultUnmapped {
		t.Fatalf("unmapped VA: err=%v, want *vm.Fault{FaultUnmapped}", err)
	}
	if got := io.ctr.Faults; got != 2 {
		t.Fatalf("faults = %d, want 2", got)
	}
}

func TestUnmapInvalidates(t *testing.T) {
	io := newTestIOMMU(t)
	if err := io.Map(0, 0x2000, 0x6000, vm.Read); err != nil {
		t.Fatal(err)
	}
	if _, _, err := io.Translate(0, 0x2000, vm.AccessLoad); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := io.Translate(0, 0x2000, vm.AccessLoad); !hit {
		t.Fatal("expected an IOTLB hit before the unmap")
	}
	if err := io.Unmap(0, 0x2000); err != nil {
		t.Fatal(err)
	}
	if got := io.ctr.Flushes; got != 1 {
		t.Fatalf("flushes = %d, want 1", got)
	}
	// The generation bump must make the cached entry stale.
	if _, _, err := io.Translate(0, 0x2000, vm.AccessLoad); err == nil {
		t.Fatal("translate after unmap succeeded (stale IOTLB entry)")
	}
}

func TestProtectionFault(t *testing.T) {
	io := newTestIOMMU(t)
	if err := io.Map(0, 0x0, 0x2000, vm.Read); err != nil {
		t.Fatal(err)
	}
	var f *vm.Fault
	_, _, err := io.Translate(0, 0x8, vm.AccessStore)
	if !errors.As(err, &f) || f.Kind != vm.FaultProtection {
		t.Fatalf("store through read-only mapping: err=%v, want protection fault", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	io := newTestIOMMU(t)
	if err := io.Map(0, 0x2000, 0x6000, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if err := io.Map(3, 0x4000, 0x8000, vm.Read); err != nil {
		t.Fatal(err)
	}
	if _, _, err := io.Translate(0, 0x2000, vm.AccessLoad); err != nil {
		t.Fatal(err)
	}
	snap := io.Snapshot()
	h0 := io.StateHash()

	// Diverge: new mapping, an unmap, more IOTLB traffic.
	if err := io.Map(1, 0x6000, 0xa000, vm.Read); err != nil {
		t.Fatal(err)
	}
	if err := io.Unmap(3, 0x4000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := io.Translate(1, 0x6000, vm.AccessLoad); err != nil {
		t.Fatal(err)
	}
	if io.StateHash() == h0 {
		t.Fatal("StateHash did not change with the state")
	}

	if err := io.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := io.StateHash(); got != h0 {
		t.Fatalf("restored StateHash = %#x, want %#x", got, h0)
	}
	if _, ok := io.Lookup(1, 0x6000); ok {
		t.Fatal("post-snapshot mapping survived the restore")
	}
	if _, ok := io.Lookup(3, 0x4000); !ok {
		t.Fatal("pre-snapshot mapping did not come back")
	}

	other, err := New(Config{Contexts: 2, PageSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Fatal("restore into a different-shape IOMMU succeeded")
	}
}

func TestRegisterMetrics(t *testing.T) {
	io := newTestIOMMU(t)
	r := obs.NewRegistry()
	io.RegisterMetrics(r)
	if err := io.Map(0, 0x2000, 0x6000, vm.Read); err != nil {
		t.Fatal(err)
	}
	if _, _, err := io.Translate(0, 0x2000, vm.AccessLoad); err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Get("iommu.iotlb_misses"); !ok || v != 1 {
		t.Fatalf("iommu.iotlb_misses = %d, %v; want 1", v, ok)
	}
	if v, ok := r.Get("iommu.maps"); !ok || v != 1 {
		t.Fatalf("iommu.maps = %d, %v; want 1", v, ok)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Contexts: 0, PageSize: 8192}); err == nil {
		t.Fatal("0 contexts accepted")
	}
	if _, err := New(Config{Contexts: 1, PageSize: 3000}); err == nil {
		t.Fatal("non-power-of-two page size accepted")
	}
	if err := mustNew(t).Map(9, 0, 0, vm.Read); err == nil {
		t.Fatal("out-of-range context accepted")
	}
}

func mustNew(t *testing.T) *IOMMU {
	t.Helper()
	io, err := New(Config{Contexts: 2, PageSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	return io
}

var sinkPA phys.Addr

// TestIOTLBHitZeroAllocs pins the ISSUE's hot-path contract: a
// translation served from the IOTLB allocates nothing.
func TestIOTLBHitZeroAllocs(t *testing.T) {
	io := newTestIOMMU(t)
	if err := io.Map(0, 0x2000, 0x6000, vm.Read|vm.Write); err != nil {
		t.Fatal(err)
	}
	if _, _, err := io.Translate(0, 0x2000, vm.AccessLoad); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		pa, hit, err := io.Translate(0, 0x2008, vm.AccessLoad)
		if err != nil || !hit {
			t.Fatalf("hit=%v err=%v", hit, err)
		}
		sinkPA = pa
	})
	if allocs != 0 {
		t.Fatalf("IOTLB hit path allocates %v per op, want 0", allocs)
	}
}

func BenchmarkIOTLBHit(b *testing.B) {
	io, err := New(Config{Contexts: 4, PageSize: 8192})
	if err != nil {
		b.Fatal(err)
	}
	if err := io.Map(0, 0x2000, 0x6000, vm.Read|vm.Write); err != nil {
		b.Fatal(err)
	}
	io.Translate(0, 0x2000, vm.AccessLoad)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa, _, _ := io.Translate(0, 0x2008, vm.AccessLoad)
		sinkPA = pa
	}
}

// TestTranslateIOUnmappedMatchesTranslate: an unmapped device page
// faults through TranslateIO with the same IOTLB state and counters as
// through Translate, and without allocating.
func TestTranslateIOUnmappedMatchesTranslate(t *testing.T) {
	var ios [2]*IOMMU
	for i := range ios {
		ios[i] = newTestIOMMU(t)
		if err := ios[i].Map(1, 0x10000, 0x4000, vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ios[i].Translate(1, 0x10000, vm.AccessLoad); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ios[0].Translate(1, 0x20000, vm.AccessStore); err == nil {
		t.Fatal("Translate of an unmapped page succeeded")
	}
	if _, _, err := ios[1].TranslateIO(1, 0x20000, true); err == nil {
		t.Fatal("TranslateIO of an unmapped page succeeded")
	}
	if a, b := ios[0].IOTLB().Snapshot(), ios[1].IOTLB().Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("IOTLB differs:\n Translate   %+v\n TranslateIO %+v", *a, *b)
	}
	if a, b := ios[0].ctr, ios[1].ctr; a != b {
		t.Fatalf("counters differ: Translate %+v, TranslateIO %+v", a, b)
	}
	allocs := testing.AllocsPerRun(100, func() { ios[1].TranslateIO(1, 0x20000, false) })
	if allocs != 0 {
		t.Fatalf("an unmapped TranslateIO allocates %.1f times, want 0", allocs)
	}
}

// Translate resolves a device virtual address for ctx through the
// IOTLB, as TranslateIO does, but reports every fault as a *vm.Fault
// (unmapped or protection). hit reports an IOTLB hit. The hit path
// allocates nothing.
func (io *IOMMU) Translate(ctx int, va uint64, access vm.Access) (phys.Addr, bool, error) {
	as, err := io.table(ctx)
	if err != nil {
		return 0, false, err
	}
	pa, hit, err := io.tlb.Translate(as, vm.VAddr(va), access)
	if err != nil {
		io.ctr.Faults.Inc()
	}
	return pa, hit, err
}

// twoStepTranslateIO is the reference TranslateIO: a page-table lookup
// before every translation, counting an unmapped page as a tick, an
// IOTLB miss and a fault (what Translate counts for it) without the
// *vm.Fault reaching the caller.
func twoStepTranslateIO(io *IOMMU, ctx int, va uint64, write bool) (phys.Addr, bool, error) {
	access := vm.AccessLoad
	if write {
		access = vm.AccessStore
	}
	if _, ok := io.Lookup(ctx, va); !ok && ctx >= 0 && ctx < len(io.tables) {
		io.Translate(ctx, va, access)
		return 0, false, errNotMapped
	}
	return io.Translate(ctx, va, access)
}

// TestTranslateIOMatchesTwoStep: TranslateIO, which reads the page
// table only on an IOTLB miss, returns what the two-step reference
// returns and leaves the IOTLB (entries, stamps, tick) and every
// counter as it does, over seeded streams of hits, misses, unmapped
// pages, protection faults on read-only pages, contexts out of range,
// and maps and unmaps between them.
func TestTranslateIOMatchesTwoStep(t *testing.T) {
	const pageSize = 8192
	rng := rand.New(rand.NewSource(1))
	var got, want *IOMMU
	mapBoth := func(ctx int, va uint64, prot vm.Prot) {
		for _, io := range []*IOMMU{got, want} {
			if err := io.Map(ctx, va, phys.Addr(0x100000+va), prot); err != nil {
				t.Fatal(err)
			}
		}
	}
	var faults, prot, badCtx int
	for trial := 0; trial < 20; trial++ {
		got, want = newTestIOMMU(t), newTestIOMMU(t)
		for ctx := 0; ctx < 4; ctx++ {
			for p := uint64(0); p < 12; p++ {
				switch rng.Intn(3) {
				case 0:
					mapBoth(ctx, p*pageSize, vm.Read|vm.Write)
				case 1:
					mapBoth(ctx, p*pageSize, vm.Read)
				}
			}
		}
		for step := 0; step < 500; step++ {
			ctx, va, write := rng.Intn(6)-1, uint64(rng.Intn(16))*pageSize+uint64(rng.Intn(pageSize)), rng.Intn(2) == 0
			switch rng.Intn(20) {
			case 0:
				if ctx >= 0 && ctx < 4 {
					mapBoth(ctx, va&^(pageSize-1), vm.Read|vm.Write)
				}
				continue
			case 1:
				if ctx >= 0 && ctx < 4 {
					got.Unmap(ctx, va&^(pageSize-1))
					want.Unmap(ctx, va&^(pageSize-1))
				}
				continue
			}
			pa, hit, err := got.TranslateIO(ctx, va, write)
			wpa, whit, werr := twoStepTranslateIO(want, ctx, va, write)
			if pa != wpa || hit != whit || fmt.Sprint(err) != fmt.Sprint(werr) || (err == errNotMapped) != (werr == errNotMapped) {
				t.Fatalf("trial %d step %d TranslateIO(%d, %#x, %v) = (%v, %v, %v), two-step (%v, %v, %v)",
					trial, step, ctx, va, write, pa, hit, err, wpa, whit, werr)
			}
			if f := (*vm.Fault)(nil); errors.As(err, &f) && f.Kind == vm.FaultProtection {
				prot++
			}
			switch {
			case err == errNotMapped:
				faults++
			case ctx < 0 || ctx >= 4:
				badCtx++
			}
			if a, b := got.IOTLB().Snapshot(), want.IOTLB().Snapshot(); !reflect.DeepEqual(a, b) {
				t.Fatalf("trial %d step %d: IOTLB differs:\n TranslateIO %+v\n two-step    %+v", trial, step, *a, *b)
			}
			if a, b := got.ctr, want.ctr; a != b {
				t.Fatalf("trial %d step %d: counters differ: TranslateIO %+v, two-step %+v", trial, step, a, b)
			}
		}
	}
	if faults < 500 || prot < 500 || badCtx < 500 {
		t.Fatalf("%d unmapped, %d protection and %d bad-context translations; the draw no longer covers them", faults, prot, badCtx)
	}
}
