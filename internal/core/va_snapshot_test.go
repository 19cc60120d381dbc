package userdma

import (
	"testing"

	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/phys"
	"uldma/internal/proc"
	"uldma/internal/sim"
	"uldma/internal/vm"
)

// TestVAMidFaultSnapshotFidelity pins the ISSUE's snapshot contract for
// the virtual-address plane at machine level: a world snapshot taken
// with a transfer PARKED on a mid-transfer device page fault (the
// walker's position, the faulting VA, the IOMMU's tables and the ring
// of not-yet-moved bytes all live state) rewinds and replays
// byte-identically — restored origin and hydrated clone both. The
// pager-on case configures the parked world as PagingBench does
// (stall policy, a two-frame pager): a fault parks only while the pager
// is off, so the pager is enabled once the transfer has parked, and the
// recovery's re-map then goes through it.
func TestVAMidFaultSnapshotFidelity(t *testing.T) {
	t.Run("pager-off", func(t *testing.T) { vaMidFaultSnapshotFidelity(t, false) })
	t.Run("pager-on", func(t *testing.T) { vaMidFaultSnapshotFidelity(t, true) })
}

func vaMidFaultSnapshotFidelity(t *testing.T, pager bool) {
	method := ExtShadow{}
	cfg := VAConfigFor(method, 0)
	const (
		srcBase vm.VAddr = 0x10000
		dstBase vm.VAddr = 0x20000
	)

	build := func() (*machine.Machine, phys.Addr, phys.Addr) {
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var h *Handle
		p := m.NewProcess("faulter", func(c *proc.Context) error {
			// Initiate and exit without waiting: the transfer is about
			// to park on the unmapped destination and only host-side
			// kernel action can resume it.
			st, err := h.DMA(c, srcBase, dstBase, uint64(cfg.PageSize))
			if err != nil {
				return err
			}
			_ = st
			return nil
		})
		if h, err = method.Attach(m, p); err != nil {
			t.Fatal(err)
		}
		srcFrames, err := SetupVAPages(m, p, h.Context(), srcBase, 1, vm.Read|vm.Write)
		if err != nil {
			t.Fatal(err)
		}
		dstFrames, err := SetupVAPages(m, p, h.Context(), dstBase, 1, vm.Read|vm.Write)
		if err != nil {
			t.Fatal(err)
		}
		// Pull the destination's IOMMU mapping before the world runs:
		// the walk translates the source, then faults on the destination
		// and parks (pager disabled, so the fault is unresolvable until
		// the host maps the page back).
		devDst := uint64(dstBase) &^ (cfg.PageSize - 1) & (uint64(1)<<cfg.Engine.MemBits - 1)
		if err := m.IOMMU.Unmap(h.Context(), devDst); err != nil {
			t.Fatal(err)
		}
		if err := m.Mem.Fill(srcFrames[0], int(cfg.PageSize), 0xAD); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(proc.NewRoundRobin(1<<20), 1<<30); err != nil {
			t.Fatal(err)
		}
		if p.Err() != nil {
			t.Fatal(p.Err())
		}
		m.Settle()
		if got := m.Engine.Counters().VAStalls; got != 1 {
			t.Fatalf("VAStalls = %d, want 1 (the transfer parks)", got)
		}
		if pager {
			m.Engine.SetRecoveryPolicy(dma.RecoverStall)
			if err := m.Kernel.EnablePager(2, pagingPageIn); err != nil {
				t.Fatal(err)
			}
		}
		return m, srcFrames[0], dstFrames[0]
	}

	// resume performs the host-side recovery: map the faulted page back
	// and wake the parked transfer — exactly one must be parked — at a
	// fixed offset from the world's (restored) clock.
	devDst := uint64(dstBase) &^ (cfg.PageSize - 1) & (uint64(1)<<cfg.Engine.MemBits - 1)
	resume := func(m *machine.Machine, ctx int, dstFrame phys.Addr) machine.Fingerprint {
		if err := m.Kernel.MapIO(ctx, devDst, dstFrame, vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
		if n := m.Engine.ResumeFaulted(-1, m.Clock.Now()+10*sim.Microsecond); n != 1 {
			t.Fatalf("ResumeFaulted woke %d transfers, want 1", n)
		}
		m.Settle()
		return m.Fingerprint()
	}
	checkBytes := func(m *machine.Machine, dstFrame phys.Addr, label string) {
		buf := make([]byte, cfg.PageSize)
		if err := m.Mem.ReadInto(dstFrame, buf); err != nil {
			t.Fatal(err)
		}
		for i, b := range buf {
			if b != 0xAD {
				t.Fatalf("%s: byte %d = %#x, want 0xad", label, i, b)
			}
		}
	}

	origin, _, dstFrame := build()
	ctx := 0 // first AssignContext on a fresh kernel
	snap, err := origin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapFP := origin.Fingerprint()

	// Determinism baseline: an identical fresh world parks identically.
	fresh, _, freshDst := build()
	if fp := fresh.Fingerprint(); fp != snapFP {
		t.Fatalf("mid-fault world not reproducible:\n  origin %v\n  fresh  %v", snapFP, fp)
	}
	if freshDst != dstFrame {
		t.Fatalf("frame allocation diverged: %v vs %v", dstFrame, freshDst)
	}

	// Life 1: resume the origin.
	wantFP := resume(origin, ctx, dstFrame)
	checkBytes(origin, dstFrame, "origin")
	if wantFP == snapFP {
		t.Fatal("resume left no trace in the fingerprint")
	}

	// A clone hydrated from the mid-fault snapshot replays the same
	// recovery byte-identically.
	clone, err := machine.NewFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if fp := clone.Fingerprint(); fp != snapFP {
		t.Fatalf("clone of the mid-fault world diverged:\n  clone %v\n  want  %v", fp, snapFP)
	}
	if fp := resume(clone, ctx, dstFrame); fp != wantFP {
		t.Fatalf("clone's recovery diverged:\n  origin %v\n  clone  %v", wantFP, fp)
	}
	checkBytes(clone, dstFrame, "clone")

	// Rewind the origin itself: the parked walker, the IOMMU's tables
	// and the un-written destination must all come back.
	if err := origin.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if fp := origin.Fingerprint(); fp != snapFP {
		t.Fatalf("restore did not rewind the mid-fault world:\n  got  %v\n  want %v", fp, snapFP)
	}
	if fp := resume(origin, ctx, dstFrame); fp != wantFP {
		t.Fatalf("rewound recovery diverged:\n  got  %v\n  want %v", fp, wantFP)
	}
	checkBytes(origin, dstFrame, "rewound origin")
}
