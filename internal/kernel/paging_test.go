package kernel_test

import (
	"testing"

	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// TestPagerEvictionOrder: over a seeded stream of touches, pins and
// unpins on twelve device pages in two contexts under a four-page
// budget, the pager's LRU list names the same next victim as a scan of
// every page by (lastUse, seq) — before every operation, so also at
// every eviction — including after a machine Restore to a snapshot
// taken mid-stream.
func TestPagerEvictionOrder(t *testing.T) {
	m := machine.MustNew(machine.EnableVirtualDMA(machine.Alpha3000TC(dma.ModeExtended, 5)))
	k := m.Kernel
	if err := k.EnablePager(4, sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	type page struct {
		ctx int
		va  uint64
	}
	ps := m.Cfg.PageSize
	var pages []page
	for i := uint64(0); i < 12; i++ {
		pg := page{ctx: int(i % 2), va: 0x100000 + i*ps}
		if err := k.MapIO(pg.ctx, pg.va, phys.Addr(0x200000+i*ps), vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, pg)
	}
	rng := sim.NewRand(31)
	var pinned []page // one element per pin held
	check := func(step int) {
		t.Helper()
		gc, gva, gok := k.Victim()
		wc, wva, wok := k.ScanVictim()
		if gc != wc || gva != wva || gok != wok {
			t.Fatalf("step %d: LRU list picks (%d, %#x, %v), the scan (%d, %#x, %v)", step, gc, gva, gok, wc, wva, wok)
		}
	}
	stream := func(from, to int) {
		t.Helper()
		for step := from; step < to; step++ {
			check(step)
			pg := pages[rng.Intn(len(pages))]
			switch r := rng.Intn(10); {
			case r < 7 || (r < 9 && len(pinned) >= 3) || (r == 9 && len(pinned) == 0):
				if _, err := k.ResolveFault(pg.ctx, pg.va, false); err != nil {
					t.Fatalf("step %d: touch %+v: %v", step, pg, err)
				}
			case r < 9:
				if _, err := k.PinRange(pg.ctx, pg.va, ps, false); err != nil {
					t.Fatalf("step %d: pin %+v: %v", step, pg, err)
				}
				pinned = append(pinned, pg)
			default:
				i := rng.Intn(len(pinned))
				k.UnpinRange(pinned[i].ctx, pinned[i].va, ps)
				pinned = append(pinned[:i], pinned[i+1:]...)
			}
		}
		check(to)
	}
	stream(0, 150)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapPinned, evictions := append([]page(nil), pinned...), k.Counters().PagerEvictions.Value()
	stream(150, 220)
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	pinned = snapPinned
	check(150)
	stream(150, 400)
	if got := k.Counters().PagerEvictions.Value() - evictions; got < 50 {
		t.Fatalf("%d evictions after the restore; want the stream to evict often", got)
	}
}
