package userdma

// Pool-hazard pins for the DMA engine's pooled Transfer records. A
// snapshot copies every live record by value and a restore rebuilds
// them from the restoring engine's own pool, so no world can recycle a
// record another world (or the snapshot itself) still names.

import (
	"fmt"
	"testing"

	"uldma/internal/dma"
	"uldma/internal/machine"
	"uldma/internal/proc"
	"uldma/internal/vm"
)

// poolSrc and poolDst are the data pages of the pool-hazard worlds.
const poolSrc, poolDst = vm.VAddr(0x10000), vm.VAddr(0x20000)

// xfer is one initiation a pool-hazard guest makes: size bytes from
// poolSrc+off to poolDst+off.
type xfer struct {
	off  vm.VAddr
	size uint64
}

// pollDone polls the handle's status until the transfer has landed.
// It never calls Handle.Wait, whose poll skip reads the handle's own
// machine: the guests below run on clones of that machine.
func pollDone(c *proc.Context, h *Handle) error {
	for {
		rem, err := h.Poll(c)
		if err != nil || rem == 0 || rem == dma.StatusFailure {
			return err
		}
		c.Spin(200)
	}
}

// runXfers is a guest body: each initiation of xs, waited out.
func runXfers(h *Handle, xs []xfer) proc.Body {
	return func(c *proc.Context) error {
		for _, x := range xs {
			if _, err := h.DMA(c, poolSrc+x.off, poolDst+x.off, x.size); err != nil {
				return err
			}
			if err := pollDone(c, h); err != nil {
				return err
			}
		}
		return nil
	}
}

// run drives m to completion and fails on any guest error.
func run(t *testing.T, m *machine.Machine) {
	t.Helper()
	if err := m.Run(proc.NewRoundRobin(1<<20), 1<<30); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Runner.Processes() {
		if p.Err() != nil {
			t.Fatalf("%s: %v", p.Name(), p.Err())
		}
	}
	m.Settle()
}

// poolWorld builds an extended-shadow world whose first guest leaves a
// delivered transfer live as both the engine's last transfer and its
// register context's current one.
func poolWorld(t *testing.T) (*machine.Machine, *Handle, *proc.Process) {
	t.Helper()
	method := ExtShadow{}
	m := Machine(method)
	var h *Handle
	p := m.NewProcess("setup", func(c *proc.Context) error {
		return runXfers(h, []xfer{{0, 256}})(c)
	})
	var err error
	if h, err = method.Attach(m, p); err != nil {
		t.Fatal(err)
	}
	for _, base := range []vm.VAddr{poolSrc, poolDst} {
		frames, err := m.SetupPages(p, base, 1, vm.Read|vm.Write)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Mem.Fill(frames[0], int(m.Cfg.PageSize), byte(base>>12)); err != nil {
			t.Fatal(err)
		}
	}
	run(t, m)
	last := m.Engine.LastTransfer()
	if last == nil || last != m.Engine.ContextTransfer(h.Context()) {
		t.Fatal("the setup transfer is not live as both last and the context's cur")
	}
	return m, h, p
}

// TestSnapshotClonesDoNotShareRecords: two clones restored from one
// snapshot, taken while e.last and a context's cur are live, run
// different initiations one after the other. Each must end exactly
// where a freshly built world run the same way does — fingerprint and
// registry dump — which fails if the first clone recycled a record the
// snapshot still shared with the second.
func TestSnapshotClonesDoNotShareRecords(t *testing.T) {
	plans := [][]xfer{
		{{0, 1024}, {512, 64}, {0, 0}},
		{{128, 4096 - 128}, {0, 8}, {64, 1 << 40}, {0, 512}},
	}
	origin, h, p := poolWorld(t)
	snap, err := origin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, plan := range plans {
		fresh, fh, fp := poolWorld(t)
		fresh.Runner.Spawn("run", fp.AddressSpace(), runXfers(fh, plan))
		run(t, fresh)

		clone, err := machine.NewFromSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		clone.Runner.Spawn("run", p.AddressSpace(), runXfers(h, plan))
		run(t, clone)
		if got, want := clone.Fingerprint(), fresh.Fingerprint(); got != want {
			t.Fatalf("clone %d diverged from a fresh world:\n  clone %v\n  fresh %v", i, got, want)
		}
		if got, want := fmt.Sprint(clone.Obs.Snapshot()), fmt.Sprint(fresh.Obs.Snapshot()); got != want {
			t.Fatalf("clone %d registry diverged from a fresh world:\n%s\nwant\n%s", i, got, want)
		}
		if err := clone.Engine.CheckInvariants(clone.Clock.Now()); err != nil {
			t.Fatalf("clone %d: %v", i, err)
		}
	}
}

// pagingStream is a guest body: transfers first..first+n-1 of the
// PagingBench loop, page i%pages of the source region to the one
// destination page, each waited out.
func pagingStream(h *Handle, ps vm.VAddr, pages, first, n int) proc.Body {
	const srcBase, dstBase = vm.VAddr(0x100000), vm.VAddr(0x80000)
	return func(c *proc.Context) error {
		for i := first; i < first+n; i++ {
			src := srcBase + vm.VAddr(i%pages)*ps
			if _, err := h.DMA(c, src, dstBase, uint64(ps)); err != nil {
				return err
			}
			if err := pollDone(c, h); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestPagingWorldSnapshotReplays: a world configured like PagingBench
// (IOMMU, stall policy, a two-frame pager over four source pages)
// snapshots after its first paging stream, and a clone and the rewound
// origin replay a second stream — which faults and pages in mid-transfer
// — exactly as a freshly built world does.
func TestPagingWorldSnapshotReplays(t *testing.T) {
	const pages = 4
	build := func() (*machine.Machine, *Handle, *proc.Process) {
		method := ExtShadow{}
		cfg := VAConfigFor(method, 0)
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Engine.SetRecoveryPolicy(dma.RecoverStall)
		if err := m.Kernel.EnablePager(2, pagingPageIn); err != nil {
			t.Fatal(err)
		}
		ps := vm.VAddr(cfg.PageSize)
		var h *Handle
		p := m.NewProcess("paging", func(c *proc.Context) error {
			return pagingStream(h, ps, pages, 0, 12)(c)
		})
		if h, err = method.Attach(m, p); err != nil {
			t.Fatal(err)
		}
		if _, err := SetupVAPages(m, p, h.Context(), 0x100000, pages, vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
		if _, err := SetupVAPages(m, p, h.Context(), 0x80000, 1, vm.Read|vm.Write); err != nil {
			t.Fatal(err)
		}
		run(t, m)
		return m, h, p
	}
	type end struct {
		fp     machine.Fingerprint
		render string
	}
	// replay runs the second stream on m and returns where it ends.
	replay := func(m *machine.Machine, h *Handle, p *proc.Process) end {
		faults := m.Engine.Counters().VAFaults.Value()
		m.Runner.Spawn("more", p.AddressSpace(), pagingStream(h, vm.VAddr(m.Cfg.PageSize), pages, 12, 8))
		run(t, m)
		if m.Engine.Counters().VAFaults.Value() == faults {
			t.Fatal("the replayed stream took no faults")
		}
		if err := m.Engine.CheckInvariants(m.Clock.Now()); err != nil {
			t.Fatal(err)
		}
		return end{m.Fingerprint(), fmt.Sprint(m.Obs.Snapshot())}
	}

	fresh, fh, fp := build()
	want := replay(fresh, fh, fp)

	origin, h, p := build()
	snap, err := origin.Snapshot()
	if err != nil {
		t.Fatalf("a PagingBench world must snapshot: %v", err)
	}
	if got := replay(origin, h, p); got != want {
		t.Fatalf("origin diverged from a fresh world:\n  got  %v\n  want %v", got.fp, want.fp)
	}
	clone, err := machine.NewFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := replay(clone, h, p); got != want {
		t.Fatalf("clone diverged from a fresh world:\n  got  %v\n  want %v", got.fp, want.fp)
	}
	if err := origin.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := replay(origin, h, p); got != want {
		t.Fatalf("rewound origin diverged from a fresh world:\n  got  %v\n  want %v", got.fp, want.fp)
	}
}
